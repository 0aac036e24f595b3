"""Regression tests for the defects the reprolint pass surfaced in src/.

Each fix gets two layers where feasible: a unit test pinning the exact
mechanism (a Record must lower in field order, a torn frame must become
a client error) and a trajectory-equivalence test showing the touched
path still produces the bit-identical battle the determinism invariant
demands.
"""

import pytest

from repro.game.battle import BattleSimulation
from repro.serve.queries import plain_value
from repro.serve.spectator import SpectatorClient, SpectatorError
from repro.serve.transport import FrameError
from repro.sgl.values import Record, Vec


def battle_signature(ticks=4, **kwargs):
    with BattleSimulation(48, density=0.02, **kwargs) as sim:
        sim.run(ticks)
        return sim.state_signature()


class TestWorkerBroadcastBlobs:
    """The worker broadcast builds each tick's delta and snapshot blobs
    once and hands the same bytes to every worker; three workers fed
    that way must stay bit-identical to the flat serial trajectory."""

    def test_worker_broadcast_trajectory(self):
        baseline = battle_signature(ticks=4, seed=23)
        with BattleSimulation(
            48, density=0.02, seed=23, num_shards=3, shard_by="spatial",
            parallelism="processes", max_workers=3,
        ) as sim:
            sim.run(4)
            assert sim.state_signature() == baseline


class TestPlainValueRecordOrder:
    def test_record_lowering_preserves_field_order(self):
        rec = Record({"zeta": 2.0, "alpha": 1.0, "mid": 3.0})
        out = plain_value(rec)
        assert out == {"zeta": 2.0, "alpha": 1.0, "mid": 3.0}
        assert list(out) == ["zeta", "alpha", "mid"]

    def test_nested_records_and_vecs(self):
        rec = Record({"pos": Vec((1.0, 2.0)), "inner": Record({"b": 2, "a": 1})})
        out = plain_value(rec)
        assert out == {"pos": [1.0, 2.0], "inner": {"b": 2, "a": 1}}
        assert list(out["inner"]) == ["b", "a"]


class _TornTransport:
    """Transport stub whose recv simulates a desynchronized stream."""

    def __init__(self):
        self.closed = False
        self.sent = []

    def settimeout(self, value):
        pass

    def send(self, message):
        self.sent.append(message)

    def recv(self):
        raise FrameError("bad frame header")

    def close(self):
        self.closed = True


class TestSpectatorClientTornFrame:
    def test_frame_error_becomes_spectator_error_and_closes(self):
        client = SpectatorClient.__new__(SpectatorClient)
        client.timeout = 1.0
        client._transport = _TornTransport()
        with pytest.raises(SpectatorError, match="desynchronized"):
            client._round_trip(("ping",))
        assert client._transport.closed
