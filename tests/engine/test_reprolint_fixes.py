"""Regression tests for the defects the reprolint pass surfaced in src/.

Each fix gets two layers where feasible: a unit test pinning the exact
mechanism (an ``id()``-keyed cache must validate its referent, a Record
must lower in field order, a torn frame must become a client error) and
a trajectory-equivalence test showing the touched path still produces
the bit-identical battle the determinism invariant demands.
"""

import pytest

from repro.algebra.executor import PlanExecutor
from repro.algebra.ops import plan_signature
from repro.algebra.rewrite import optimize, prune_unused_columns
from repro.algebra.translate import translate_script
from repro.game.battle import BattleSimulation
from repro.serve.queries import plain_value
from repro.serve.spectator import SpectatorClient, SpectatorError
from repro.serve.transport import FrameError
from repro.sgl.interp import NaiveAggregateEvaluator
from repro.sgl.parser import parse_script
from repro.sgl.values import Record, Vec
from tests.conftest import make_env

SCRIPT = (
    "main(u) { (let c = CountEnemiesInRange(u, 8)) "
    "if c > 0 then perform UseWeapon(u) }"
)


def rng_for(seed=0):
    from repro.engine.rng import stable_hash

    return lambda row, i: stable_hash((seed, row["key"], i)) & 0xFFFF


def battle_signature(ticks=4, **kwargs):
    with BattleSimulation(48, density=0.02, **kwargs) as sim:
        sim.run(ticks)
        return sim.state_signature()


class TestExecutorMemoPinsPlan:
    """``PlanExecutor._memo`` is keyed by ``id(plan)``; the entry now
    stores the plan itself and is ignored when the identity mismatches,
    so a collected plan node's recycled id can never serve a stale
    unit/effect stream."""

    def _executor(self, registry, schema):
        env = make_env(schema, n=16, seed=3)
        plan = optimize(
            translate_script(parse_script(SCRIPT), registry), registry
        )
        return (
            PlanExecutor(env, registry, NaiveAggregateEvaluator(), rng_for(3)),
            plan,
        )

    def test_poisoned_memo_entry_is_recomputed(self, registry, schema):
        executor, plan = self._executor(registry, schema)
        clean = executor.run(plan)
        # simulate id() reuse: every memoised id now "belongs" to some
        # other object; the stale payloads must never be returned
        for key in list(executor._memo):
            executor._memo[key] = (object(), "stale-poison")
        again = executor.run(plan)
        assert again.rows == clean.rows

    def test_memo_entries_pin_their_plan(self, registry, schema):
        executor, plan = self._executor(registry, schema)
        executor.run(plan)
        assert executor._memo, "memo unexpectedly empty"
        for key, (node, _value) in executor._memo.items():
            assert id(node) == key


class TestPruneMemoPinsNodes:
    def test_repeated_prune_is_stable(self, registry):
        plan = translate_script(parse_script(SCRIPT), registry)
        first = prune_unused_columns(plan)
        second = prune_unused_columns(plan)
        assert plan_signature(first) == plan_signature(second)

    def test_shared_subtrees_stay_shared(self, registry):
        from repro.game.scripts import FIGURE_3_SCRIPT

        plan = translate_script(parse_script(FIGURE_3_SCRIPT), registry)
        pruned = prune_unused_columns(plan)
        # rule-9 sharing: identical (node, needed) pairs must come back
        # as the *same* object, not equal copies
        ids = [id(child) for child in pruned.inputs]
        rescans = set()
        for child in pruned.inputs:
            node = child
            while node.children():
                node = node.children()[0]
            rescans.add(id(node))
        assert len(rescans) == 1, "ScanE leaves should be one shared node"
        assert len(ids) == len(pruned.inputs)


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
