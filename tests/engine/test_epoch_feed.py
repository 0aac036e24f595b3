"""One ``EpochUpdate`` per epoch feeds the publisher, the log and workers.

Every consumer of the engine's post-tick state -- a spectator
subscriber, the epoch log, a process worker -- keeps its own belief of
what its holders hold and is sent a delta only when that belief chains.
``restore_state`` on a live engine breaks every chain: a holder may
hold the restored epoch *number* from the old timeline.  The regression
tests pin that no consumer chains a delta across a restore; the
generated property drives random sequences of ticks, late joins,
between-tick publishes and restores, and asserts after
every step that a raw subscriber's replica, the log's replay and the
engine hold the same rows.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.env.sharding import ReplicaTable
from repro.game.battle import BattleSimulation
from repro.persist import EpochLogReader
from repro.serve.transport import SocketTransport


class RawSubscriber:
    """An in-process spectator: a feed socket and a ``ReplicaTable``.

    The publisher must feed no one else: every update it counts as sent
    is one this subscriber receives.
    """

    def __init__(self, publisher):
        self.publisher = publisher
        self.transport = SocketTransport.connect(
            publisher.address, timeout=5.0
        )
        self.replica = ReplicaTable("key")
        self.received = 0

    def catch_up(self):
        stats = self.publisher.stats
        while self.received < stats.delta_sends + stats.snapshot_sends:
            self.replica.apply(self.transport.recv())
            self.received += 1

    def close(self):
        self.transport.close()


def replay_current(engine, path):
    """The epoch log's replay at the engine's current epoch."""
    engine.epoch_log.flush()
    with EpochLogReader(path) as reader:
        return reader.replay(upto=engine.tick_count + 1)


def restore_same_epoch_number(sim):
    """The reproduction: keep epoch 2's rows, run to epoch 4, restore
    them *as* epoch 4, tick once."""
    engine = sim.engine
    sim.tick()
    kept = list(engine.env.rows)
    sim.run(2)
    engine.restore_state(engine.tick_count + 1, kept)
    sim.tick()
    assert engine.tick_count + 1 == 5


class TestRestoreResyncsConsumers:
    def test_log_replay_equals_engine(self, tmp_path):
        log = tmp_path / "battle.log"
        with BattleSimulation(60, seed=3, epoch_log=str(log)) as sim:
            restore_same_epoch_number(sim)
            result = replay_current(sim.engine, log)
            assert result.epoch == 5
            assert result.rows == sim.engine.env.rows

    def test_raw_subscriber_equals_engine(self):
        with BattleSimulation(60, seed=3, spectators=True) as sim:
            sub = RawSubscriber(sim.engine.publisher)
            try:
                restore_same_epoch_number(sim)
                sub.catch_up()
            finally:
                sub.close()
            assert sub.replica.epoch == 5
            assert sub.replica.rows == sim.engine.env.rows

    def test_process_workers_equal_engine(self):
        """The restored state's update carries no delta, so every worker
        is snapshot-fed mid-session and keeps deciding as the serial
        engine does."""
        with BattleSimulation(60, seed=3) as serial:
            restore_same_epoch_number(serial)
            want = serial.state_signature()
        with BattleSimulation(
            60, seed=3, num_shards=2, parallelism="processes", max_workers=2
        ) as sim:
            restore_same_epoch_number(sim)
            stats = sim.engine.worker_stats
            # per worker: a snapshot when the pool started, deltas at
            # ticks 2 and 3, and a snapshot again after the restore
            assert stats.delta_broadcasts == 4
            assert stats.snapshot_broadcasts == 4
            assert sim.state_signature() == want


OPS = st.one_of(
    st.just(("tick",)),
    st.just(("join",)),
    st.just(("publish",)),
    st.tuples(
        st.just("restore"),
        st.integers(0, 10),  # which recorded state
        st.sampled_from(["own", "current", "next"]),  # restored epoch
        st.booleans(),  # publish before the next tick
    ),
)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(OPS, min_size=1, max_size=10))
def test_subscriber_log_and_engine_agree(ops):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "battle.log"
        with BattleSimulation(
            40, seed=5, spectators=True, epoch_log=str(log)
        ) as sim:
            engine = sim.engine
            recorded = [(1, list(engine.env.rows))]
            sub = None

            def tick():
                sim.tick()
                recorded.append((engine.tick_count + 1, list(engine.env.rows)))

            def check_subscriber():
                sub.catch_up()
                if sub.replica.held:  # fed since it joined
                    assert sub.replica.epoch == engine.tick_count + 1
                    assert sub.replica.rows == engine.env.rows

            try:
                for op in ops:
                    if op[0] == "tick":
                        tick()
                    elif op[0] == "join" and sub is None:
                        sub = RawSubscriber(engine.publisher)
                    elif op[0] == "publish":
                        engine.publish_spectators()
                    elif op[0] == "restore":
                        _, which, target, publish = op
                        epoch, rows = recorded[which % len(recorded)]
                        epoch = {
                            "own": epoch,
                            "current": engine.tick_count + 1,
                            "next": engine.tick_count + 2,
                        }[target]
                        engine.restore_state(epoch, list(rows))
                        if publish:
                            engine.publish_spectators()
                            if sub is not None:
                                check_subscriber()
                        # the log learns of a restored state at its next
                        # tick, so the checks below follow one
                        tick()
                    if sub is not None:
                        check_subscriber()
                    result = replay_current(engine, log)
                    assert result.epoch == engine.tick_count + 1
                    assert result.rows == engine.env.rows
            finally:
                if sub is not None:
                    sub.close()
