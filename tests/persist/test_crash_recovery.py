"""Crash drills: kill -9 a writer mid-record, SIGKILL a coordinator.

Real subprocesses, real SIGKILL -- the log must come back with its torn
tail truncated (loudly) and the recovered run must be bit-identical to
one that never crashed.  ``fsync="always"`` is the drill configuration:
every record is durable the moment ``append`` returns, so the recovered
epoch is exactly the pre-crash epoch.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.game.battle import BattleSimulation
from repro.persist import EpochLogReader, truncate_torn_tail

SRC = str(Path(__file__).resolve().parents[2] / "src")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_child(code, *args):
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )


WRITER_CHILD = """
import os, signal, sys
from repro.persist import EpochLogWriter, encode_record, REC_STATE

path, epochs = sys.argv[1], int(sys.argv[2])
rows_at = lambda e: [{"key": k, "hp": 100 - e * (k + 1)} for k in range(6)]
writer = EpochLogWriter(
    path, checkpoint_every=3, fsync="always", background=False
)
writer.append_meta({"key_attr": "key"})
for epoch in range(1, epochs + 1):
    from repro.env.sharding import EpochUpdate, ReplicaDelta
    delta = None
    if epoch > 1:
        delta = ReplicaDelta(
            base_epoch=epoch - 1, epoch=epoch, new_size=6,
            updated=[(k, {"hp": 100 - epoch * (k + 1)}) for k in range(6)],
        )
    writer.append_epoch(
        EpochUpdate(epoch, rows_at(epoch), delta)
    )
# die mid-record: half of the next epoch's bytes land, then kill -9 --
# exactly what a power cut or OOM kill during the write leaves behind
partial = encode_record(REC_STATE, epochs + 1, b"x" * 64)
writer._fh.write(partial[: len(partial) // 2])
writer._fh.flush()
os.fsync(writer._fh.fileno())
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestWriterKilledMidRecord:
    def test_torn_tail_truncated_and_replay_reaches_precrash_epoch(
        self, tmp_path
    ):
        path = tmp_path / "log"
        epochs = 7
        proc = run_child(WRITER_CHILD, path, epochs)
        proc.communicate(timeout=60)
        assert proc.returncode == -signal.SIGKILL
        # the tail holds half a record; recovery drops it, keeps the rest
        dropped = truncate_torn_tail(path)
        assert dropped > 0
        assert truncate_torn_tail(path) == 0  # idempotent
        with EpochLogReader(path) as reader:
            result = reader.replay()
        assert result.epoch == epochs  # every durable epoch survived
        assert result.rows == [
            {"key": k, "hp": 100 - epochs * (k + 1)} for k in range(6)
        ]


BATTLE_CHILD = """
import sys, time
from repro.game.battle import BattleSimulation

log, ticks = sys.argv[1], int(sys.argv[2])
sim = BattleSimulation(
    56, density=0.02, seed=11,
    epoch_log=log, epoch_log_checkpoint_every=4, epoch_log_fsync="always",
)
for t in range(ticks):
    sim.tick()
    # the background writer makes durability eventual; the drill pins
    # it down so a printed tick is a provably durable tick
    sim.engine.epoch_log.flush()
    print(f"TICK {t + 1}", flush=True)
    time.sleep(0.05)  # leave the parent a window to aim SIGKILL into
print("DONE", flush=True)
"""

TOTAL_TICKS = 12
KILL_AFTER = 5


class TestCoordinatorSigkill:
    @pytest.fixture(scope="class")
    def reference(self):
        """The uninterrupted run the recovered one must reproduce."""
        with BattleSimulation(56, density=0.02, seed=11) as sim:
            summary = sim.run(TOTAL_TICKS)
            return sim.state_signature(), summary

    def kill_mid_battle(self, log_path):
        proc = run_child(BATTLE_CHILD, log_path, TOTAL_TICKS)
        try:
            deadline = time.monotonic() + 60
            for line in proc.stdout:
                if line.strip() == f"TICK {KILL_AFTER}":
                    break
                assert time.monotonic() < deadline, "child never progressed"
            proc.kill()  # SIGKILL: no atexit, no flush, no goodbye
            proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == -signal.SIGKILL

    def test_recovered_trajectory_bit_identical(self, tmp_path, reference):
        ref_signature, ref_summary = reference
        log = tmp_path / "battle.log"
        self.kill_mid_battle(log)
        with BattleSimulation.recover(log) as sim:
            recovered = sim.summary.ticks
            # every fsynced tick survived the kill; the child confirmed
            # KILL_AFTER ticks and may have completed a few more
            assert KILL_AFTER <= recovered < TOTAL_TICKS
            assert sim.engine.tick_count == recovered
            sim.run(TOTAL_TICKS - recovered)
            assert sim.state_signature() == ref_signature
            assert sim.summary.ticks == ref_summary.ticks
            assert sim.summary.deaths == ref_summary.deaths
            assert sim.summary.resurrections == ref_summary.resurrections
            assert sim.summary.total_damage == ref_summary.total_damage
            assert sim.summary.total_healing == ref_summary.total_healing
            final_rows = list(sim.engine.env.rows)
        # resume_log (the default) kept logging: the log now replays all
        # the way to the finished battle, post-crash ticks included
        with EpochLogReader(log) as reader:
            assert reader.last_epoch == TOTAL_TICKS + 1
            final = reader.replay()
        assert final.epoch == TOTAL_TICKS + 1
        assert final.rows == final_rows  # values AND row order

    def test_recover_without_resume_log_leaves_log_untouched(
        self, tmp_path, reference
    ):
        ref_signature, _ = reference
        log = tmp_path / "battle.log"
        self.kill_mid_battle(log)
        truncate_torn_tail(log)
        size = log.stat().st_size
        with BattleSimulation.recover(log, resume_log=False) as sim:
            recovered = sim.summary.ticks
            sim.run(TOTAL_TICKS - recovered)
            assert sim.state_signature() == ref_signature
        assert log.stat().st_size == size
