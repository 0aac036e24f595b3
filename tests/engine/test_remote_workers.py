"""Remote decision workers over SocketTransport.

Three layers of coverage:

* **endpoint/config plumbing** -- ``WorkerEndpoint`` parsing and the
  engine-side validation of the ``workers`` knob;
* **bit-exactness** -- real ``--listen`` worker processes (spawned on
  ephemeral loopback ports, exactly what ``python -m
  repro.engine.shardexec --listen`` runs on another host) drive full
  battles and must reproduce the flat serial engine's state bit for
  bit;
* **fault drills** -- dropped connections mid-run (reconnect + snapshot
  re-feed), drifted replica epochs over sockets (STALE + same-tick
  snapshot), unreachable hosts (informative failure, never silence),
  and the mid-run ``reshard()`` with remote socket workers *and* a
  spectator replica attached simultaneously -- the epoch-ack protocol
  and the fire-and-forget publish stage share one change capture and
  must recover independently.
"""

import socket

import pytest

from repro.engine.shardexec import (
    REMOTE_IO_TIMEOUT,
    WorkerEndpoint,
    spawn_listen_worker,
)
from repro.env.sharding import snapshot_blob
from repro.game.battle import BattleSimulation
from repro.serve.queries import AuthoritativeQueryService

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "socketpair"),
    reason="platform lacks stream-socket support",
)


def battle_signature(ticks=4, n_units=48, **kwargs):
    with BattleSimulation(n_units, density=0.02, **kwargs) as sim:
        sim.run(ticks)
        return sim.state_signature()


@pytest.fixture(scope="module")
def endpoints():
    """Two live --listen worker processes on ephemeral loopback ports.

    Module-scoped: each engine run is one session per worker (INIT →
    ticks → STOP), and the listeners loop back to accept the next one,
    exactly like long-lived worker hosts would.
    """
    procs = []
    addresses = []
    for _ in range(2):
        process, address = spawn_listen_worker()
        procs.append(process)
        addresses.append(f"{address[0]}:{address[1]}")
    yield addresses
    for process in procs:
        process.terminate()
        process.join(timeout=5)


class TestWorkerEndpoint:
    def test_parse_forms(self):
        assert WorkerEndpoint.parse("battle-7.internal:9001") == WorkerEndpoint(
            "battle-7.internal", 9001
        )
        assert WorkerEndpoint.parse(("10.0.0.8", 9002)) == WorkerEndpoint(
            "10.0.0.8", 9002
        )
        ep = WorkerEndpoint("h", 1)
        assert WorkerEndpoint.parse(ep) is ep
        assert ep.address == ("h", 1)

    @pytest.mark.parametrize(
        "bad", ["nocolon", ":9", "host:", "host:notaport", 7, ("h",)]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="endpoint"):
            WorkerEndpoint.parse(bad)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="parallelism"):
            BattleSimulation(10, workers=["127.0.0.1:1"])
        with pytest.raises(ValueError, match="num_shards"):
            # one shard runs the decision stage in-process: a fleet
            # that would silently never be contacted must be rejected
            BattleSimulation(
                10, parallelism="processes", workers=["127.0.0.1:1"]
            )

    def test_oversized_update_blob_names_the_endpoint(self, endpoints):
        """A snapshot beyond the frame guard is a configuration error,
        not a dead worker: no revive loop, actionable message."""
        with BattleSimulation(
            400, density=0.02, seed=3, num_shards=2,
            parallelism="processes", workers=endpoints,
            # admits the INIT handshake (the battle's game, ~19 KB) but
            # not a 400-row snapshot (~41 KB)
            worker_max_frame=32 * 1024,
        ) as sim:
            with pytest.raises(
                RuntimeError, match="update blob.*worker_max_frame"
            ):
                sim.run(1)
        with pytest.raises(ValueError, match="host:port"):
            BattleSimulation(
                10, parallelism="processes", num_shards=2,
                workers="127.0.0.1:1",
            )

    def test_oversized_init_names_the_knob(self, endpoints):
        """The INIT handshake carries the game: one beyond the frame
        guard fails at once, naming the knob, instead of retrying."""
        with BattleSimulation(
            24, density=0.02, seed=3, num_shards=2,
            parallelism="processes", workers=endpoints,
            worker_max_frame=512,
        ) as sim:
            with pytest.raises(RuntimeError, match="INIT.*worker_max_frame"):
                sim.run(1)

    def test_listen_worker_that_cannot_bind_reports_why(self):
        # TEST-NET-1 is never a local address: bind fails, no packet
        with pytest.raises(
            RuntimeError,
            match="(?s)listen worker failed to initialise:.*OSError",
        ):
            spawn_listen_worker(host="192.0.2.1")

    def test_unreachable_endpoint_fails_loudly(self):
        # grab a port that is definitely closed
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(RuntimeError, match="cannot reach remote worker"):
            with BattleSimulation(
                24, density=0.02, num_shards=2, parallelism="processes",
                workers=[f"127.0.0.1:{dead_port}"],
            ) as sim:
                sim.run(1)


class TestRemoteWorkerEquivalence:
    """Socket workers must be invisible in the trajectory."""

    def test_full_replica_delta_and_snapshot_broadcasts(self, endpoints):
        baseline = battle_signature(seed=29)
        with BattleSimulation(
            48, density=0.02, seed=29, num_shards=4, shard_by="spatial",
            parallelism="processes", workers=endpoints,
        ) as sim:
            sim.run(4)
            assert sim.state_signature() == baseline
            stats = sim.engine.worker_stats
            assert stats.delta_broadcasts > 0
            assert stats.snapshot_broadcasts == len(endpoints)  # first tick
            # every session's updates together cost less than
            # snapshot-feeding one of them
            engine = sim.engine
            snapshot = snapshot_blob(engine.tick_count, engine.env.rows)
            assert stats.bytes_broadcast < 4 * len(snapshot)


class TestRemoteWorkerFaults:
    """Recovery must degrade to snapshot re-broadcast, never wrong answers."""

    def test_dropped_connection_reconnects_via_snapshot(self, endpoints):
        baseline = battle_signature(ticks=6, seed=31)
        with BattleSimulation(
            48, density=0.02, seed=31, num_shards=2, shard_by="spatial",
            parallelism="processes", workers=endpoints,
        ) as sim:
            sim.run(2)
            pool = sim.engine._pool
            pool.debug_drop_worker(0)  # the socket vanishes mid-run
            sim.run(4)
            assert pool.stats.reconnects >= 1
            assert sim.state_signature() == baseline

    def test_remote_sessions_time_out_after_a_minute(self, endpoints):
        """Every remote session, a re-established one too, bounds each
        send/recv by REMOTE_IO_TIMEOUT -- never ``None``, which would
        block forever on a silent peer."""
        assert REMOTE_IO_TIMEOUT == 60.0
        with BattleSimulation(
            24, density=0.02, seed=3, num_shards=2,
            parallelism="processes", workers=endpoints,
        ) as sim:
            sim.run(1)
            pool = sim.engine._pool
            pool.debug_drop_worker(0)
            sim.run(1)
            assert pool.stats.reconnects == 1
            assert [w.transport._sock.gettimeout() for w in pool.workers] == [
                REMOTE_IO_TIMEOUT, REMOTE_IO_TIMEOUT
            ]

    def test_stale_remote_worker_rejoins_via_snapshot(self, endpoints):
        baseline = battle_signature(ticks=6, seed=31)
        with BattleSimulation(
            48, density=0.02, seed=31, num_shards=2,
            parallelism="processes", workers=endpoints,
        ) as sim:
            sim.run(2)
            pool = sim.engine._pool
            # drift worker 0's *actual* replica epoch over the socket;
            # the next delta broadcast must bounce STALE and be repaired
            # by a snapshot within the same tick
            pool.debug_set_worker_epoch(0, 777)
            sim.run(4)
            assert pool.stats.stale_snapshots >= 1
            assert sim.state_signature() == baseline

    def test_remote_workers_and_spectators_agree(self, endpoints):
        """The epoch-ack protocol (workers chain deltas after their
        first snapshot) and the publish stage (the spectator chains
        deltas after its join) run side by side -- and every query kind
        answers bit-identically at the final epoch."""
        baseline = battle_signature(ticks=6, seed=41)
        with BattleSimulation(
            48, density=0.02, seed=41, num_shards=2, shard_by="spatial",
            parallelism="processes", workers=endpoints,
            spectators=True,
        ) as sim:
            with sim.spawn_spectator() as spectator:
                with spectator.client() as client:
                    sim.run(6)
                    pool = sim.engine._pool
                    # one snapshot per session, deltas ever since
                    assert pool.stats.snapshot_broadcasts == len(endpoints)
                    assert sim.state_signature() == baseline
                    # the spectator chained deltas after its join
                    epoch = sim.engine.tick_count + 1
                    authority = AuthoritativeQueryService(sim.engine)
                    for query, args in [
                        ("team_counts", ()),
                        ("CountFriendlyKnights", ()),
                        ("knn", (3, 10.0, 10.0)),
                    ]:
                        if query == "CountFriendlyKnights":
                            from repro.serve.queries import unit_ref

                            args = (unit_ref(sim.engine.env.rows[0]["key"]),)
                        got = client.query(query, *args, epoch=epoch)
                        want = authority.answer(query, *args)
                        assert got.value == want.value, query


class TestShutdownOrdering:
    """close() is idempotent and tears the publisher down first."""

    def test_close_is_idempotent(self, endpoints):
        sim = BattleSimulation(
            24, density=0.02, seed=3, num_shards=2,
            parallelism="processes", workers=endpoints, spectators=True,
        )
        spectator = sim.spawn_spectator()
        try:
            sim.run(2)
            sim.close()
            sim.close()  # second close must be a clean no-op
            assert sim.engine.publisher is None
            assert sim.engine._pool is None
        finally:
            spectator.close()
            sim.close()  # and a third, after spectator teardown

    def test_publisher_closes_before_worker_pool(self):
        """The engine must quiesce the spectator feed before tearing
        down workers, so subscribers see clean EOFs, not resets."""
        order = []
        with BattleSimulation(
            24, density=0.02, seed=3, num_shards=2,
            parallelism="processes", max_workers=2, spectators=True,
        ) as sim:
            sim.run(1)
            publisher = sim.engine.publisher
            pool = sim.engine._pool
            real_pub_close = publisher.close
            real_pool_close = pool.close
            publisher.close = lambda: (order.append("publisher"),
                                       real_pub_close())
            pool.close = lambda: (order.append("pool"), real_pool_close())
            sim.close()
        assert order == ["publisher", "pool"]

    def test_spectator_sees_clean_eof_on_close(self):
        """After close(), an attached spectator's feed ends with EOF and
        the replica keeps serving its last epoch -- no reset noise."""
        sim = BattleSimulation(
            24, density=0.02, seed=5, num_shards=2,
            parallelism="processes", max_workers=2, spectators=True,
        )
        spectator = sim.spawn_spectator()
        try:
            with spectator.client() as client:
                sim.run(2)
                expected = sim.engine.tick_count + 1
                # wait until the replica holds the final epoch
                import time

                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if client.status()["epoch"] == expected:
                        break
                    time.sleep(0.02)
                sim.close()
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    status = client.status()
                    if not status["feed_alive"]:
                        break
                    time.sleep(0.02)
                status = client.status()
                assert not status["feed_alive"]
                assert status["epoch"] == expected
        finally:
            spectator.close()
            sim.close()
