"""Spectator read replicas: bit-exact answers under every fault path.

Two layers of coverage:

* **publisher protocol**, in-process against a raw subscriber socket:
  snapshot-first for late joiners, delta chaining, STALE downgrade,
  bad-peer drops (the publisher must never wedge);
* **full stack fault drills** against a real spectator process over
  loopback TCP: late join, stale epoch, killed replica, dropped socket
  mid-run -- every recovery converges via snapshot and every answer is
  bit-identical to the authoritative engine at the same epoch (the
  query surface is one shared code path, exercised here across all
  query kinds).
"""

import pickle
import socket
import struct
import time

import pytest

from repro.env.sharding import NO_REPLICA, UPDATE_DELTA, UPDATE_SNAPSHOT
from repro.game.battle import BattleSimulation, battle_game
from repro.serve.publisher import SUB_STALE
from repro.serve.queries import AuthoritativeQueryService, QueryError, unit_ref
from repro.serve.spectator import SpectatorError, SpectatorReplica
from repro.serve.transport import PROTOCOL_VERSION, SocketTransport

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "socketpair"),
    reason="platform lacks stream-socket support",
)

#: A compiled-from-source aggregate (the "sgl" query kind): per-team
#: size and total HP, answered from a retained divisible index.
TEAM_HP_SQL = """
function TeamHp(p) returns
SELECT Count(*) AS n, Sum(health) AS hp
FROM E e
WHERE e.player = p;
"""

#: Every query kind the acceptance bar names (and then some):
#: compiled SGL, registered aggregate, canned aggregates, spatial k-NN.
QUERY_MATRIX = [
    (TEAM_HP_SQL, (0,), {}),
    (TEAM_HP_SQL, (1,), {}),
    ("CountFriendlyKnights", (unit_ref(0),), {}),
    ("team_counts", (), {}),
    ("hp_histogram", (), {"bucket": 25}),
    ("knn", (4, 12.0, 12.0), {}),
]

#: Malformed canned-query parameters: ``(query, args, params, message
#: prefix)``.  Each must fail as a QueryError naming the parameter --
#: never a bare exception, and never a value that cannot compare equal.
BAD_PARAMS = [
    ("hp_histogram", (), {"bucket": float("nan")}, "bucket must be"),
    ("hp_histogram", (), {"bucket": float("inf")}, "bucket must be"),
    ("hp_histogram", (), {"bucket": True}, "bucket must be"),
    ("hp_histogram", (), {"attr": "unittype"}, "attr 'unittype'"),
    ("hp_histogram", (), {"bucket": 5e-324}, "bucket 5e-324 cannot index"),
    ("knn", (True, 1.0, 1.0), {}, "k must be"),
    ("knn", (2, "a", 1.0), {}, "x must be"),
    ("knn", (2, float("nan"), 1.0), {}, "x must be"),
    ("knn", (2, 1.0, float("inf")), {}, "y must be"),
    ("knn", (2, 1.0, True), {}, "y must be"),
]


def assert_epoch_matches(client, engine, epoch):
    """Every query kind answers at *epoch* exactly like the engine."""
    authority = AuthoritativeQueryService(engine)
    assert engine.tick_count + 1 == epoch
    for query, args, params in QUERY_MATRIX:
        got = client.query(query, *args, epoch=epoch, **params)
        want = authority.answer(query, *args, **params)
        assert got.epoch == epoch
        assert got.value == want.value, (query, got.value, want.value)


def wait_for_epoch(client, epoch, deadline=10.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if client.status()["epoch"] == epoch:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"replica never reached epoch {epoch} "
        f"(at {client.status()['epoch']})"
    )


@pytest.fixture()
def battle():
    with BattleSimulation(
        48, density=0.02, seed=19, spectators=True
    ) as sim:
        yield sim


class TestPublisherProtocol:
    """The feed side, driven with a raw in-process subscriber."""

    def test_late_joiner_gets_snapshot_then_deltas(self, battle):
        pub = battle.engine.publisher
        sub = SocketTransport.connect(pub.address, timeout=5.0)
        try:
            battle.tick()
            update = sub.recv()
            assert update[0] == UPDATE_SNAPSHOT
            assert update[1] == battle.engine.tick_count + 1
            battle.tick()
            update = sub.recv()
            assert update[0] == UPDATE_DELTA
            assert update[1].epoch == battle.engine.tick_count + 1
            assert pub.stats.snapshot_sends == 1
            assert pub.stats.delta_sends == 1
        finally:
            sub.close()

    def test_stale_report_downgrades_to_snapshot(self, battle):
        pub = battle.engine.publisher
        sub = SocketTransport.connect(pub.address, timeout=5.0)
        try:
            battle.tick()
            assert sub.recv()[0] == UPDATE_SNAPSHOT
            sub.send((SUB_STALE, NO_REPLICA))
            battle.tick()  # poll sees STALE, downgrades this subscriber
            assert sub.recv()[0] == UPDATE_SNAPSHOT
            assert pub.stats.stale_snapshots == 1
        finally:
            sub.close()

    def test_manual_publish_skips_current_subscribers(self, battle):
        pub = battle.engine.publisher
        sub = SocketTransport.connect(pub.address, timeout=5.0)
        try:
            battle.tick()
            assert sub.recv()[0] == UPDATE_SNAPSHOT
            assert battle.engine.publish_spectators() == 0  # already current
            assert not sub.poll(0.1)
        finally:
            sub.close()

    def test_bad_version_peer_is_dropped_not_wedged(self, battle):
        pub = battle.engine.publisher
        raw = socket.create_connection(pub.address, timeout=5.0)
        good = SocketTransport.connect(pub.address, timeout=5.0)
        try:
            raw.sendall(struct.pack(">BI", PROTOCOL_VERSION + 9, 3) + b"zzz")
            battle.tick()  # publish must survive the bad peer
            assert pub.stats.frame_errors == 1
            assert pub.stats.drops == 1
            assert good.recv()[0] == UPDATE_SNAPSHOT  # good peer unaffected
        finally:
            raw.close()
            good.close()

    def test_oversized_header_peer_is_dropped(self, battle):
        pub = battle.engine.publisher
        raw = socket.create_connection(pub.address, timeout=5.0)
        try:
            raw.sendall(struct.pack(">BI", PROTOCOL_VERSION, 1 << 31))
            battle.tick()
            assert pub.stats.drops == 1
        finally:
            raw.close()

    def test_unknown_control_message_drops_peer(self, battle):
        pub = battle.engine.publisher
        sub = SocketTransport.connect(pub.address, timeout=5.0)
        try:
            sub.send(("make_me_admin", 1))
            battle.tick()
            assert pub.stats.drops == 1
            assert pub.num_subscribers == 0
        finally:
            sub.close()

    def test_dropped_socket_mid_delta_removes_subscriber(self, battle):
        """A subscriber whose socket dies is dropped at the next send;
        the tick loop never raises."""
        pub = battle.engine.publisher
        sub = SocketTransport.connect(pub.address, timeout=5.0)
        battle.tick()
        assert sub.recv()[0] == UPDATE_SNAPSHOT
        sub.close()
        for _ in range(4):  # TCP may accept one send after peer close
            battle.tick()
            if pub.num_subscribers == 0:
                break
        assert pub.num_subscribers == 0
        assert pub.stats.drops == 1


class TestSpectatorFaultDrills:
    """Real spectator processes driven through the recovery paths."""

    def test_answers_bit_identical_across_epochs(self, battle):
        with battle.spawn_spectator() as spectator:
            with spectator.client() as client:
                for _ in range(3):
                    battle.tick()
                    assert_epoch_matches(
                        client, battle.engine, battle.engine.tick_count + 1
                    )
                status = client.status()
                # the replica applied deltas (not snapshots) after joining
                assert status["snapshots_applied"] == 1
                assert status["updates_applied"] == 3

    def test_late_joiner_converges_via_snapshot(self, battle):
        battle.run(3)
        with battle.spawn_spectator() as spectator:
            battle.engine.publish_spectators()  # catch-up between ticks
            with spectator.client() as client:
                wait_for_epoch(client, battle.engine.tick_count + 1)
                assert_epoch_matches(
                    client, battle.engine, battle.engine.tick_count + 1
                )
                assert client.status()["snapshots_applied"] == 1

    def test_stale_epoch_converges_via_snapshot(self, battle):
        pub = battle.engine.publisher
        with battle.spawn_spectator() as spectator:
            with spectator.client() as client:
                battle.tick()
                wait_for_epoch(client, battle.engine.tick_count + 1)
                client.debug_set_epoch(777)  # drift the replica's epoch
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    battle.tick()
                    if (
                        pub.stats.stale_snapshots >= 1
                        and client.status()["epoch"]
                        == battle.engine.tick_count + 1
                    ):
                        break
                assert pub.stats.stale_snapshots >= 1
                assert client.status()["stale_reports"] >= 1
                assert_epoch_matches(
                    client, battle.engine, battle.engine.tick_count + 1
                )

    def test_killed_replica_respawns_and_matches(self, battle):
        pub = battle.engine.publisher
        spectator = battle.spawn_spectator()
        with spectator.client() as client:
            battle.tick()
            wait_for_epoch(client, battle.engine.tick_count + 1)
        spectator.kill()  # the dropped-socket-mid-run fault
        for _ in range(5):
            battle.tick()
            if pub.num_subscribers == 0:
                break
        assert pub.stats.drops == 1
        # a respawned replica re-joins as a late joiner and catches up
        with battle.spawn_spectator() as respawned:
            battle.tick()
            with respawned.client() as client:
                assert_epoch_matches(
                    client, battle.engine, battle.engine.tick_count + 1
                )

    def test_init_failure_raises_with_the_replica_traceback(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()[:2]
        probe.close()
        with pytest.raises(
            SpectatorError,
            match="(?s)spectator replica failed to initialise:.*"
            "ConnectionRefusedError",
        ):
            SpectatorReplica.spawn(dead, battle_game())

    def test_epoch_pinning_rules(self, battle):
        with battle.spawn_spectator() as spectator:
            with spectator.client() as client:
                battle.run(2)
                current = battle.engine.tick_count + 1
                wait_for_epoch(client, current)
                # a passed epoch is served from the retained history
                # (time travel; bit-exactness is covered in
                # tests/serve/test_time_travel.py)
                answer = client.query("team_counts", epoch=current - 1)
                assert answer.epoch == current - 1
                # an epoch from before the replica joined is gone
                with pytest.raises(SpectatorError, match="superseded"):
                    client.query("team_counts", epoch=0)
                # a future epoch parks until its tick... or times out
                with pytest.raises(SpectatorError, match="timed out"):
                    client.query("team_counts", epoch=current + 50, timeout=0.3)

    def test_history_disabled_keeps_forward_only_rule(self, battle):
        with battle.spawn_spectator(history_retain=0) as spectator:
            with spectator.client() as client:
                battle.run(2)
                current = battle.engine.tick_count + 1
                wait_for_epoch(client, current)
                status = client.status()
                assert status["history_span"] is None
                assert status["history_bytes"] == 0
                with pytest.raises(SpectatorError, match="superseded"):
                    client.query("team_counts", epoch=current - 1)

    def test_misspelt_setting_is_a_type_error(self, battle):
        with pytest.raises(TypeError, match="history_retian"):
            battle.spawn_spectator(history_retian=0)

    def test_query_errors_are_reported_not_fatal(self, battle):
        with battle.spawn_spectator() as spectator:
            with spectator.client() as client:
                battle.tick()
                wait_for_epoch(client, battle.engine.tick_count + 1)
                with pytest.raises(SpectatorError, match="unknown aggregate"):
                    client.query("NoSuchAggregate")
                with pytest.raises(SpectatorError, match="no unit with key"):
                    client.query("CountFriendlyKnights", unit_ref(10**9))
                with pytest.raises(SpectatorError, match="cannot compile"):
                    client.query("function Broken(u) returns SELEC oops;")
                with pytest.raises(SpectatorError, match="read-only"):
                    client.query(
                        "function Evil(u) returns "
                        "SELECT e.key, e.health + 5 AS health FROM E e "
                        "WHERE e.player = 0;"
                    )
                for query, args, params, message in BAD_PARAMS:
                    with pytest.raises(SpectatorError, match=f"^{message}"):
                        client.query(query, *args, **params)
                # the server survives all of the above
                assert_epoch_matches(
                    client, battle.engine, battle.engine.tick_count + 1
                )

    def test_coexists_with_process_workers(self):
        """The worker broadcast and the publish stage share one capture:
        the decide stage consumes last tick's delta, mechanics captures
        a fresh one, the publish stage streams it -- so after their
        first snapshots both the workers and the spectator chain
        deltas."""
        with BattleSimulation(
            48, density=0.02, seed=23, num_shards=2,
            parallelism="processes", max_workers=2, spectators=True,
        ) as sim:
            with sim.spawn_spectator() as spectator:
                with spectator.client() as client:
                    sim.run(2)
                    assert_epoch_matches(
                        client, sim.engine, sim.engine.tick_count + 1
                    )
                    assert sim.engine.publisher.stats.delta_sends >= 1
                    sim.run(2)
                    # one snapshot per worker when the pool started and
                    # one for the spectator's join; deltas since
                    assert sim.engine.worker_stats.snapshot_broadcasts == 2
                    assert sim.engine.worker_stats.delta_broadcasts == 6
                    assert sim.engine.publisher.stats.snapshot_sends == 1
                    assert_epoch_matches(
                        client, sim.engine, sim.engine.tick_count + 1
                    )

    def test_replica_survives_publisher_shutdown(self, battle):
        with battle.spawn_spectator() as spectator:
            with spectator.client() as client:
                battle.tick()
                epoch = battle.engine.tick_count + 1
                wait_for_epoch(client, epoch)
                expected = client.query("team_counts", epoch=epoch)
                battle.close()  # feed gone; replica keeps serving
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    if not client.status()["feed_alive"]:
                        break
                    time.sleep(0.02)
                answer = client.query("team_counts", epoch="latest")
                assert answer.epoch == epoch
                assert answer.value == expected.value


@pytest.mark.parametrize(
    "query, args, params, message",
    BAD_PARAMS,
    ids=[f"{q}-{p or a}" for q, a, p, _ in BAD_PARAMS],
)
def test_bad_canned_parameters_raise_query_error(query, args, params, message):
    with BattleSimulation(60, seed=4) as sim:
        authority = AuthoritativeQueryService(sim.engine)
        with pytest.raises(QueryError, match=f"^{message}"):
            authority.answer(query, *args, **params)
