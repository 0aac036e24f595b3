"""Save -> resume -> finish is bit-identical to never having stopped.

The engine's rng is counter-mode, so rows + tick number fully determine
the future; a save file (or a replayed log) restores exactly that.  The
drill runs across every parallelism mode and through the save/load
boundary in both directions -- performance knobs may change freely at
the boundary without touching the trajectory, the same guarantee the
engine makes across shard layouts and parallelism modes.
"""

import pytest

from repro.api import run_battle
from repro.engine.clock import EngineConfig, SimulationEngine
from repro.game.battle import BattleSimulation
from repro.persist import EpochLogError, EpochLogReader

N_UNITS = 48
TOTAL = 10
SPLIT = 4
BASE = dict(density=0.02, seed=29)

MODES = {
    "serial": {},
    "processes": dict(parallelism="processes", num_shards=2, max_workers=2),
}


@pytest.fixture(scope="module")
def reference():
    with BattleSimulation(N_UNITS, **BASE) as sim:
        summary = sim.run(TOTAL)
        return sim.state_signature(), summary


def assert_matches_reference(sim, reference):
    ref_signature, ref_summary = reference
    assert sim.state_signature() == ref_signature
    assert sim.summary.ticks == ref_summary.ticks
    assert sim.summary.deaths == ref_summary.deaths
    assert sim.summary.resurrections == ref_summary.resurrections
    assert sim.summary.total_damage == ref_summary.total_damage
    assert sim.summary.total_healing == ref_summary.total_healing


@pytest.mark.parametrize("mode", MODES)
def test_save_resume_equivalence(tmp_path, reference, mode):
    """Run SPLIT ticks under *mode*, save, resume serially, finish."""
    save = tmp_path / "battle.save"
    with BattleSimulation(N_UNITS, **BASE, **MODES[mode]) as sim:
        sim.run(SPLIT)
        sim.save(save)
    # resume with the parallelism knobs stripped back to serial: the
    # saved configuration is a default, not a straitjacket
    overrides = (
        dict(parallelism="serial", num_shards=1, max_workers=None)
        if mode != "serial"
        else {}
    )
    with BattleSimulation.load(save, **overrides) as sim:
        assert sim.summary.ticks == SPLIT
        assert sim.engine.tick_count == SPLIT
        sim.run(TOTAL - SPLIT)
        assert_matches_reference(sim, reference)


@pytest.mark.parametrize("mode", MODES)
def test_resume_into_mode(tmp_path, reference, mode):
    """Save serially, resume *into* each parallelism mode."""
    save = tmp_path / "battle.save"
    with BattleSimulation(N_UNITS, **BASE) as sim:
        sim.run(SPLIT)
        sim.save(save)
    with BattleSimulation.load(save, **MODES[mode]) as sim:
        sim.run(TOTAL - SPLIT)
        assert_matches_reference(sim, reference)


def test_run_battle_resume_from(tmp_path, reference):
    save = tmp_path / "battle.save"
    with BattleSimulation(N_UNITS, **BASE) as sim:
        sim.run(SPLIT)
        sim.save(save)
    summary = run_battle(None, TOTAL - SPLIT, resume_from=str(save))
    ref_summary = reference[1]
    assert summary.ticks == ref_summary.ticks
    assert summary.deaths == ref_summary.deaths
    assert summary.total_damage == ref_summary.total_damage
    # the resumed run only ran its own ticks' stats
    assert len(summary.tick_stats) == TOTAL - SPLIT


def test_run_battle_requires_units_or_save():
    with pytest.raises(ValueError, match="n_units"):
        run_battle(None, 5)


def test_save_mid_run_with_epoch_log_attached(tmp_path, reference):
    """save() and the epoch log coexist; both restore paths agree."""
    log = tmp_path / "battle.log"
    save = tmp_path / "battle.save"
    with BattleSimulation(
        N_UNITS, **BASE, epoch_log=str(log), epoch_log_checkpoint_every=3
    ) as sim:
        sim.run(SPLIT)
        sim.save(save)
    with BattleSimulation.load(save) as from_save:
        from_save.run(TOTAL - SPLIT)
        assert_matches_reference(from_save, reference)
    with BattleSimulation.recover(log, resume_log=False) as from_log:
        assert from_log.summary.ticks == SPLIT
        from_log.run(TOTAL - SPLIT)
        assert_matches_reference(from_log, reference)


def test_resumed_run_can_start_its_own_log(tmp_path, reference):
    save = tmp_path / "battle.save"
    log = tmp_path / "resumed.log"
    with BattleSimulation(N_UNITS, **BASE) as sim:
        sim.run(SPLIT)
        sim.save(save)
    with BattleSimulation.load(save, epoch_log=str(log)) as sim:
        sim.run(TOTAL - SPLIT)
        assert_matches_reference(sim, reference)
        final_rows = list(sim.engine.env.rows)
    with EpochLogReader(log) as reader:
        # the log opens at the resumed epoch, not the scenario's start
        assert reader.first_epoch == SPLIT + 1
        result = reader.replay()
    assert result.epoch == TOTAL + 1
    assert result.rows == final_rows


def test_wrong_file_kinds_are_refused(tmp_path):
    save = tmp_path / "battle.save"
    with BattleSimulation(16, density=0.02, seed=1) as sim:
        sim.tick()
        sim.save(save)
        payload_log = tmp_path / "battle.log"
        sim.attach_epoch_log(str(payload_log))
        sim.tick()
    # a save file is not an epoch log and vice versa
    with pytest.raises(EpochLogError, match="not a save file"):
        BattleSimulation.load(payload_log)
    with pytest.raises(EpochLogError):
        BattleSimulation.recover(save, resume_log=False)


def test_attaching_a_log_leaves_the_config_alone(tmp_path):
    """``attach_epoch_log(path)`` starts a writer without writing *path*
    into the caller's config, which may be shared by other engines."""
    log = tmp_path / "battle.log"
    battle = BattleSimulation(16, density=0.02, seed=1)
    config = EngineConfig(seed=1)
    with SimulationEngine(
        battle.env, battle.game, lambda combined, rng, tick: combined, config
    ) as engine:
        engine.attach_epoch_log(str(log))
        engine.tick()
        rows = list(engine.env.rows)
    assert config.epoch_log is None
    with EpochLogReader(log) as reader:
        assert reader.replay().rows == rows


@pytest.fixture
def format_1_files(tmp_path, monkeypatch):
    """A save file and an epoch log written under ``SAVE_FORMAT = 1``,
    whose kwargs may name ``worker_scope`` or ``parallelism="threads"``."""
    save, log = tmp_path / "battle.save", tmp_path / "battle.log"
    monkeypatch.setattr("repro.game.battle.SAVE_FORMAT", 1)
    with BattleSimulation(16, density=0.02, seed=1, epoch_log=str(log)) as sim:
        sim.tick()
        sim.save(save)
    monkeypatch.undo()
    return save, log


def test_format_1_save_is_refused(format_1_files):
    with pytest.raises(EpochLogError, match="save format 1"):
        BattleSimulation.load(format_1_files[0])


def test_format_1_log_is_refused(format_1_files):
    with pytest.raises(EpochLogError, match="save format 1"):
        BattleSimulation.recover(format_1_files[1], resume_log=False)


@pytest.mark.parametrize(
    "knob, value",
    [
        ("worker_scope", "shards"),
        ("worker_broadcast", "snapshot"),
        ("workers", ["127.0.0.1:9001"]),
        ("cascade", False),
        ("optimize_aoe", False),
        ("index_maintenance", "incremental"),
    ],
)
def test_persisted_unknown_knob_is_an_epoch_log_error(tmp_path, knob, value):
    from repro.persist.log import read_state_file, write_state_file

    save = tmp_path / "battle.save"
    log = tmp_path / "battle.log"
    with BattleSimulation(16, density=0.02, seed=1) as sim:
        sim.tick()
        sim._ctor_kwargs[knob] = value  # a knob of another build
        sim.save(save)
        sim.attach_epoch_log(str(log))
        sim.tick()
    with pytest.raises(EpochLogError, match=knob):
        BattleSimulation.load(save)
    with pytest.raises(EpochLogError, match=knob):
        BattleSimulation.recover(log, resume_log=False)
    # the same file with the key removed loads: only the key was wrong
    epoch, payload = read_state_file(save)
    del payload["kwargs"][knob]
    write_state_file(save, epoch, payload)
    with BattleSimulation.load(save) as sim:
        assert sim.engine.tick_count == 1
