"""Replica-holding process workers: the epoch-versioned delta protocol.

Two layers of coverage:

* the **wire format** (`ReplicaDelta` encode/apply) is exercised
  in-process: sparse attribute patches, keys-only deletes, elided row
  order, and the stale-epoch guard;
* the **fault paths** drive real worker processes through genuine
  failures -- a drifted replica epoch, a killed-and-respawned worker --
  and assert the battle trajectory stays
  bit-identical to the flat serial engine, because every recovery
  degrades to a snapshot broadcast, never to wrong answers;
* the **shutdown order** of an engine with workers and a spectator.
"""

import multiprocessing
import pickle
import socket
import time

import pytest

from repro.engine.shardexec import (
    MSG_TICK,
    REPLY_ERROR,
    ReplicaWorkerPool,
    _local_worker_main,
    _WorkerState,
)
from repro.env.sharding import (
    UPDATE_DELTA,
    UPDATE_SNAPSHOT,
    StaleReplicaError,
    apply_replica_delta,
    delta_blob,
    encode_replica_delta,
    snapshot_blob,
)
from repro.env.table import EnvironmentTable, diff_by_key
from repro.game.battle import BattleSimulation, battle_game
from repro.persist.framing import REC_DELTA, REC_SNAPSHOT
from repro.persist.log import EpochLogWriter
from repro.serve.transport import SocketTransport
from tests.conftest import combine_effects, make_env


def battle_signature(ticks=4, **kwargs):
    with BattleSimulation(48, density=0.02, **kwargs) as sim:
        sim.run(ticks)
        return sim.state_signature()


def encode(old, new, base_epoch=0, epoch=1):
    delta = diff_by_key(old, new)
    assert delta is not None
    return encode_replica_delta(
        delta,
        old_order=[r["key"] for r in old.rows],
        new_order=[r["key"] for r in new.rows],
        key_attr="key",
        base_epoch=base_epoch,
        epoch=epoch,
    )


def evolved(env, mutate):
    out = EnvironmentTable(env.schema)
    out.rows.extend(dict(r) for r in env.rows)
    mutate(out.rows)
    return out


class TestReplicaDeltaWireFormat:
    def test_sparse_updates_and_keys_only_deletes(self, schema):
        env = make_env(schema, n=10, grid=30, seed=1)

        def mutate(rows):
            rows[3]["posx"] += 1
            rows[3]["health"] -= 5
            del rows[7]

        new = evolved(env, mutate)
        rd = encode(env, new)
        assert rd.deleted_keys == [env.rows[7]["key"]]
        assert not rd.inserted
        [(key, patch)] = rd.updated
        assert key == env.rows[3]["key"]
        # only the changed attributes travel, not the whole row
        assert set(patch) == {"posx", "health"}
        # drop-in-place deletes and in-place updates are predictable:
        # no order patch on the wire
        assert rd.order is None

    def test_order_patch_ships_only_when_unpredictable(self, schema):
        env = make_env(schema, n=8, grid=30, seed=2)

        def mutate(rows):
            # the battle's resurrection shape: a changed row moves to
            # the end of E, which order prediction cannot reproduce
            row = rows.pop(2)
            row["health"] = 1
            rows.append(row)

        new = evolved(env, mutate)
        rd = encode(env, new)
        assert rd.order == [r["key"] for r in new.rows]

    def test_apply_reproduces_rows_and_reuses_replica_objects(self, schema):
        env = make_env(schema, n=12, grid=30, seed=3)

        def mutate(rows):
            rows[0]["posy"] += 2
            del rows[5]
            inserted = dict(rows[1])
            inserted["key"] = 999
            inserted["posx"] = 0
            rows.append(inserted)

        new = evolved(env, mutate)
        rd = encode(env, new)
        replica = {r["key"]: r for r in env.rows}
        old_objects = dict(replica)
        old_values = {k: dict(r) for k, r in replica.items()}
        order = apply_replica_delta(
            rd,
            replica,
            [r["key"] for r in env.rows],
            key_attr="key",
            replica_epoch=0,
        )
        rebuilt = [replica[k] for k in order]
        assert rebuilt == new.rows
        # untouched rows stay the replica's own objects; a changed row
        # is a fresh dict and the old object is left as it was, so a
        # holder may keep an earlier epoch's rows by reference
        untouched = env.rows[2]["key"]
        assert replica[untouched] is old_objects[untouched]
        changed = env.rows[0]["key"]
        assert replica[changed] is not old_objects[changed]
        assert replica[changed]["posy"] == old_objects[changed]["posy"] + 2
        assert old_objects[changed] == old_values[changed]

    def test_removed_attribute_round_trips(self, schema):
        """Rows are plain dicts: a custom game's mechanics may drop an
        attribute, and the patch must express the removal (a patch
        built from the new row's items alone could not)."""
        import pickle

        env = make_env(schema, n=4, grid=30, seed=9)
        extended = EnvironmentTable(env.schema)
        extended.rows.extend(dict(r, aura_src=7) for r in env.rows)

        def mutate(rows):
            del rows[1]["aura_src"]
            rows[1]["posx"] += 1

        new = evolved(extended, mutate)
        rd = pickle.loads(pickle.dumps(encode(extended, new)))
        replica = {r["key"]: dict(r) for r in extended.rows}
        order = apply_replica_delta(
            rd,
            replica,
            [r["key"] for r in extended.rows],
            key_attr="key",
            replica_epoch=0,
        )
        assert [replica[k] for k in order] == new.rows
        assert "aura_src" not in replica[extended.rows[1]["key"]]

    def test_mid_order_insert_ships_splice_positions(self, schema):
        """An insert that lands mid-order ships compact ``(key, index)``
        pairs -- never the whole key order -- and replays exactly."""
        import pickle

        env = make_env(schema, n=10, grid=30, seed=7)

        def mutate(rows):
            inserted = dict(rows[0])
            inserted["key"] = 555
            inserted["posx"] = 3
            rows.insert(4, inserted)

        new = evolved(env, mutate)
        rd = pickle.loads(pickle.dumps(encode(env, new)))
        assert rd.order is None  # the full order stays off the wire
        assert rd.insert_at == [(555, 4)]
        replica = {r["key"]: r for r in env.rows}
        order = apply_replica_delta(
            rd,
            replica,
            [r["key"] for r in env.rows],
            key_attr="key",
            replica_epoch=0,
        )
        assert [replica[k] for k in order] == new.rows

    def test_positional_pickle_keeps_quiet_deltas_small(self, schema):
        """The wire envelope must not dwarf quiet-tick content: field
        names stay out of the pickle (positional __reduce__)."""
        import pickle

        env = make_env(schema, n=8, grid=30, seed=8)
        new = evolved(env, lambda rows: rows[0].update(posx=1))
        blob = pickle.dumps(encode(env, new))
        assert b"deleted_keys" not in blob
        assert pickle.loads(blob) == encode(env, new)

    def test_stale_epoch_is_refused(self, schema):
        env = make_env(schema, n=6, grid=30, seed=4)
        new = evolved(env, lambda rows: rows[0].update(posx=1))
        rd = encode(env, new, base_epoch=7, epoch=8)
        replica = {r["key"]: r for r in env.rows}
        with pytest.raises(StaleReplicaError):
            apply_replica_delta(
                rd,
                replica,
                [r["key"] for r in env.rows],
                key_attr="key",
                replica_epoch=6,
            )

    def test_drifted_replica_contents_are_refused(self, schema):
        env = make_env(schema, n=6, grid=30, seed=5)
        new = evolved(env, lambda rows: rows.__delitem__(2))
        rd = encode(env, new)
        replica = {r["key"]: r for r in env.rows}
        del replica[env.rows[2]["key"]]  # the row to delete is missing
        with pytest.raises(StaleReplicaError):
            apply_replica_delta(
                rd,
                replica,
                [r["key"] for r in env.rows],
                key_attr="key",
                replica_epoch=0,
            )

class TestReplicaWorkerFaults:
    """Real worker processes driven through the recovery paths."""

    def test_delta_broadcasts_match_serial_and_save_bytes(self):
        baseline = battle_signature(seed=29)
        with BattleSimulation(
            48, density=0.02, seed=29, num_shards=2,
            parallelism="processes", max_workers=2,
        ) as sim:
            sim.run(4)
            assert sim.state_signature() == baseline
            stats = sim.engine.worker_stats
            assert stats.delta_broadcasts > 0
            # both workers' updates together (their first-tick snapshots
            # included) cost less than snapshot-feeding one of them
            engine = sim.engine
            snapshot = snapshot_blob(engine.tick_count, engine.env.rows)
            assert stats.bytes_broadcast < 4 * len(snapshot)

    def test_stale_worker_rejoins_via_snapshot(self):
        baseline = battle_signature(ticks=6, seed=31)
        with BattleSimulation(
            48, density=0.02, seed=31, num_shards=2,
            parallelism="processes", max_workers=2,
        ) as sim:
            sim.run(2)
            pool = sim.engine._pool
            # drift worker 0's *actual* replica epoch; the coordinator's
            # belief is untouched, so the next broadcast is a delta the
            # worker must refuse
            pool.debug_set_worker_epoch(0, 777)
            sim.run(4)
            assert pool.stats.stale_snapshots >= 1
            assert sim.state_signature() == baseline

    def test_killed_worker_respawns_via_snapshot(self):
        baseline = battle_signature(ticks=6, seed=37)
        with BattleSimulation(
            48, density=0.02, seed=37, num_shards=2,
            parallelism="processes", max_workers=2,
        ) as sim:
            sim.run(2)
            pool = sim.engine._pool
            pool.workers[0].process.kill()
            pool.workers[0].process.join()
            sim.run(4)
            assert pool.stats.respawns >= 1
            assert sim.state_signature() == baseline

    def test_oversized_update_blob_names_the_guard(self):
        """A snapshot beyond the pool's frame guard is a configuration
        error on the first tick, not a dead worker to respawn."""
        with BattleSimulation(
            48, density=0.02, seed=3, num_shards=2,
            parallelism="processes", max_workers=2,
        ) as sim:
            engine = sim.engine
            payload = {
                "mode": engine.config.mode,
                "seed": engine.config.seed,
                "shard_conf": engine._shard_conf,
            }
            engine._pool = ReplicaWorkerPool(
                engine.game, payload, 2, max_frame=1024
            )
            with pytest.raises(
                RuntimeError, match="update blob of .* bytes.*max_frame=1024"
            ):
                sim.run(1)
            assert engine.worker_stats.respawns == 0

    def test_init_failure_raises_at_pool_start(self):
        """A worker that cannot build its state answers the session
        handshake with its traceback, and the pool raises with it."""
        payload = {"mode": "indexed", "seed": 0, "shard_conf": ("key", 0, None)}
        with pytest.raises(
            RuntimeError,
            match="(?s)local worker .* failed to initialise:.*ShardingError",
        ):
            ReplicaWorkerPool(battle_game(), payload, 2)

    def test_spawned_workers_match_serial(self):
        """Workers started by spawn, not fork: the game is pickled and the
        socket handed to a child that inherited nothing."""
        baseline = battle_signature(ticks=3, seed=47)
        with BattleSimulation(
            48, density=0.02, seed=47, num_shards=2,
            parallelism="processes", max_workers=2,
        ) as sim:
            engine = sim.engine
            payload = {
                "mode": engine.config.mode,
                "seed": engine.config.seed,
                "shard_conf": engine._shard_conf,
            }
            engine._pool = ReplicaWorkerPool(
                engine.game, payload, 2, multiprocessing.get_context("spawn")
            )
            sim.run(3)
            assert engine.worker_stats.delta_broadcasts > 0
            assert sim.state_signature() == baseline

class TestWorkerPatchOrRebuild:
    """A worker replays the delta into its replica and rebuilds its
    indexes from it, checked here on ``_WorkerState`` in-process (no
    pool)."""

    SHARD_CONF = ("spatial", 2, 30)
    SHARDS = [0, 1]

    def worker(self, mode="indexed"):
        return _WorkerState(
            battle_game(),
            {"mode": mode, "seed": 5, "shard_conf": self.SHARD_CONF},
        )

    def feed(self, state, blob, tick, shards=SHARDS):
        """What ``_worker_loop`` does with one update blob."""
        state.replica.apply(pickle.loads(blob))
        return state.decide(tick, shards)

    @staticmethod
    def combined(state, results):
        """Each shard's effects ⊕-combined with the replica: the indexed
        worker defers area effects, the naive one scans them."""
        env = EnvironmentTable(state.stage.game.schema)
        env.rows.extend(state.replica.rows)
        registry = state.stage.game.registry
        return [
            (shard, combine_effects(env, registry, rows, aoe))
            for shard, rows, aoe in results
        ]

    def check_pair(self, indexed, naive, blob, tick, shards=SHARDS):
        """Feed *blob* to both workers; their shards must combine equal."""
        got = self.feed(indexed, blob, tick, shards)
        want = self.feed(naive, blob, tick, shards)
        assert self.combined(indexed, got) == self.combined(naive, want)
        assert any(effect_rows for _, effect_rows, _ in got)

    def run_pair(self, blobs):
        """Feed the same blobs to an indexed and a naive worker; returns
        the indexed worker after asserting equal results every tick."""
        indexed, naive = self.worker(), self.worker("naive")
        for tick, blob in enumerate(blobs, start=1):
            self.check_pair(indexed, naive, blob, tick)
        return indexed

    def moved(self, env, count):
        def mutate(rows):
            for row in rows[:count]:
                row["posy"] = (row["posy"] + 1) % 30

        return evolved(env, mutate)

    def blobs_for(self, env, new):
        rd = encode(env, new, base_epoch=1, epoch=2)
        return [snapshot_blob(1, env.rows), delta_blob(rd)]

    def test_large_delta_rebuilds_and_drops_structures(self, schema):
        env = make_env(schema, n=60, grid=30, seed=11)
        new = self.moved(env, 50)
        snapshot, delta = self.blobs_for(env, new)
        state = self.worker()
        self.feed(state, snapshot, 1)
        built = dict(state.stage.agg_eval._div_index)
        assert built
        self.feed(state, delta, 2)
        stats = state.stage.agg_eval.stats
        assert stats.get("rebuild_ticks") == 1
        assert all(
            state.stage.agg_eval._div_index.get(name) is not index
            for name, index in built.items()
        )
        self.run_pair([snapshot, delta])

    def test_mid_session_snapshot_keeps_the_evaluator(self, schema):
        """A snapshot in the middle of a session (after a restore, or to
        a drifted worker) replaces the replica, never the evaluator or
        the shard layout the session opened with: the evaluator goes on
        afterwards and answers as a naive worker does."""
        env = make_env(schema, n=60, grid=30, seed=11)
        new = self.moved(env, 3)
        newer = self.moved(new, 3)
        blobs = [
            snapshot_blob(1, env.rows),
            snapshot_blob(2, new.rows),
            delta_blob(encode(new, newer, base_epoch=2, epoch=3)),
        ]
        indexed, naive = self.worker(), self.worker("naive")
        evaluator = indexed.stage.agg_eval
        for tick, blob in enumerate(blobs, start=1):
            self.check_pair(indexed, naive, blob, tick)
        assert indexed.stage.agg_eval is evaluator
        assert {indexed.shard_of(row) for row in newer.rows} == set(
            self.SHARDS
        )

    def test_rejected_layout_leaves_no_replica(self):
        """The shard layout arrives in the payload that opens the
        session, so a layout the worker cannot adopt fails the session
        before any replica exists: the handshake answers ERROR with the
        traceback, and no update is ever read."""
        ours, theirs = socket.socketpair()
        bad_layout = ("spatial", 2, None)  # a spatial layout needs an extent
        payload = {"mode": "indexed", "seed": 5, "shard_conf": bad_layout}
        with SocketTransport(ours) as transport:
            # queued before the session starts: a worker that served it
            # would answer a second message
            transport.send((MSG_TICK, snapshot_blob(1, []), 1, [0]))
            _local_worker_main(theirs, battle_game(), payload, 1 << 20)
            tag, error = transport.recv()
            assert tag == REPLY_ERROR
            assert "ShardingError" in error
            # ... and nothing more: the session closed with the tick
            # unread, which the peer sees as a reset (or a plain EOF)
            with pytest.raises((EOFError, ConnectionResetError)):
                transport.recv()

    def test_real_battle_ticks_rebuild(self):
        """Three consecutive ticks of a 200-unit battle, shipped as the
        coordinator ships them: the worker rebuilds every tick and
        answers as a naive worker does."""
        with BattleSimulation(200, density=0.01, seed=5) as sim:
            engine = sim.engine
            blobs = [snapshot_blob(1, engine.env.rows)]
            for epoch in (1, 2):
                old = engine.env
                sim.tick()
                rd = encode(old, engine.env, base_epoch=epoch, epoch=epoch + 1)
                blobs.append(delta_blob(rd))
        stats = self.run_pair(blobs).stage.agg_eval.stats
        assert stats.get("rebuild_ticks") == 2


class TestOnePicklePerDelta:
    """One epoch's update reaches the spectator feed and the epoch log at
    the end of its tick and the workers at the start of the next: every
    consumer must be handed the identical ``bytes`` object, delta and
    snapshot alike."""

    @pytest.fixture()
    def sent(self, monkeypatch):
        """Spy on every feed: worker update blobs by tick, blobs put on
        subscriber sockets, epoch-log payloads by (record type, epoch).

        Workers and subscribers share one transport class: a worker
        message is pickled by ``send`` and then framed by
        ``send_bytes``, while the publisher hands ``send_bytes`` the
        update blob itself.  Only the outermost call is recorded."""
        sent = {"workers": {}, "published": [], "logged": {}}
        send = SocketTransport.send
        send_bytes = SocketTransport.send_bytes
        append = EpochLogWriter._append
        in_send = []

        def spy_send(self, message):
            if message[0] == MSG_TICK:
                _, blob, tick, _ = message
                sent["workers"].setdefault(tick, []).append(blob)
            in_send.append(message)
            try:
                return send(self, message)
            finally:
                in_send.pop()

        def spy_send_bytes(self, blob):
            if not in_send:
                sent["published"].append(blob)
            return send_bytes(self, blob)

        def spy_append(self, rtype, epoch, payload, **kwargs):
            sent["logged"][rtype, epoch] = payload
            return append(self, rtype, epoch, payload, **kwargs)

        monkeypatch.setattr(SocketTransport, "send", spy_send)
        monkeypatch.setattr(SocketTransport, "send_bytes", spy_send_bytes)
        monkeypatch.setattr(EpochLogWriter, "_append", spy_append)
        return sent

    def battle(self, tmp_path, **kwargs):
        return BattleSimulation(
            48, density=0.02, seed=23, num_shards=2,
            parallelism="processes", max_workers=2, spectators=True,
            epoch_log=str(tmp_path / "epochs.log"), **kwargs,
        )

    def test_workers_subscriber_and_log_share_the_delta_bytes(
        self, tmp_path, sent
    ):
        with self.battle(tmp_path) as sim:
            sub = SocketTransport.connect(
                sim.engine.publisher.address, timeout=5.0
            )
            try:
                sim.run(3)
                for _ in range(3):
                    sub.recv()
            finally:
                sub.close()
        # epoch 3: captured, published and logged by tick 2, broadcast
        # to both workers at tick 3
        blob = sent["logged"][REC_DELTA, 3]
        assert pickle.loads(blob)[0] == UPDATE_DELTA
        assert [b is blob for b in sent["workers"][3]] == [True, True]
        assert any(b is blob for b in sent["published"])

    def test_log_checkpoint_late_joiner_and_drifted_worker_share_snapshot(
        self, tmp_path, sent
    ):
        with self.battle(tmp_path, epoch_log_checkpoint_every=1) as sim:
            sim.run(2)
            sub = SocketTransport.connect(
                sim.engine.publisher.address, timeout=5.0
            )
            try:
                # the late joiner is caught up to epoch 3 between ticks
                sim.engine.publish_spectators()
                assert sub.recv()[:2] == (UPDATE_SNAPSHOT, 3)
                # worker 0 refuses tick 3's delta and is re-sent epoch 3
                # as a snapshot
                sim.engine._pool.debug_set_worker_epoch(0, 777)
                sim.tick()
                assert sim.engine.worker_stats.stale_snapshots == 1
            finally:
                sub.close()
        blob = sent["logged"][REC_SNAPSHOT, 3]  # checkpointed by tick 2
        assert pickle.loads(blob)[:2] == (UPDATE_SNAPSHOT, 3)
        assert any(b is blob for b in sent["published"])
        assert any(b is blob for b in sent["workers"][3])


class TestShutdownOrdering:
    """close() is idempotent and tears the publisher down first."""

    def test_close_is_idempotent(self):
        sim = BattleSimulation(
            24, density=0.02, seed=3, num_shards=2,
            parallelism="processes", max_workers=2, spectators=True,
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
