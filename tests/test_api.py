"""The public facade: compile, explain, run."""

import dataclasses
import inspect

import pytest

import repro
from repro.api import (
    GameDefinition,
    compile_script,
    explain_script,
    run_battle,
)
from repro.engine.clock import EngineConfig
from repro.game.battle import BattleSimulation
from repro.game.scripts import FIGURE_3_SCRIPT, build_registry, build_scripts
from repro.sgl.errors import SglNameError


class TestCompileScript:
    def test_valid(self, registry, schema):
        script = compile_script(
            "main(u) { perform UseWeapon(u) }", registry, schema
        )
        assert script.main.name == "main"

    def test_invalid_rejected(self, registry):
        with pytest.raises(SglNameError):
            compile_script("main(u) { perform Nothing(u) }", registry)

    def test_normalized_output(self, registry):
        from repro.sgl.normalize import is_normal_form

        script = compile_script(
            "main(u) { if CountEnemiesInRange(u, 5) > 0 then "
            "perform UseWeapon(u) }",
            registry, normalize=True,
        )
        assert is_normal_form(script, registry)


class TestExplainScript:
    def test_figure_3(self):
        result = explain_script(FIGURE_3_SCRIPT, build_registry())
        assert "⊕" in result.plan
        assert result.aggregate_kinds["CountEnemiesInRange"] == "divisible"
        assert result.aggregate_kinds["NearestEnemy"] == "nearest"
        assert "divisible" in str(result)


class TestRunBattle:
    def test_returns_summary(self):
        summary = run_battle(30, ticks=3, mode="indexed", seed=1)
        assert summary.ticks == 3
        assert summary.total_time > 0

    def test_naive_mode(self):
        summary = run_battle(20, ticks=2, mode="naive", seed=1)
        assert summary.ticks == 2

    def test_index_maintenance_knob(self):
        # all three policies run and agree on summary-level outcomes
        summaries = {
            policy: run_battle(
                24, ticks=3, seed=5, index_maintenance=policy
            )
            for policy in ("rebuild", "incremental", "auto")
        }
        baseline = summaries["rebuild"]
        for summary in summaries.values():
            assert summary.ticks == 3
            assert summary.total_damage == baseline.total_damage
            assert summary.deaths == baseline.deaths

    def test_invalid_index_maintenance_rejected(self):
        with pytest.raises(ValueError):
            run_battle(10, ticks=1, index_maintenance="bogus")


class TestKnobsDeclaredOnce:
    """``EngineConfig`` is the one declaration of the knob list: the
    battle, ``GameDefinition.engine`` and ``run_battle`` forward to it."""

    #: fields the battle fills in itself
    SUPPLIED = {"spatial_extent"}

    @staticmethod
    def probes(tmp_path):
        """One non-default value per knob, plus the knobs it needs set."""
        return {
            "mode": dict(mode="naive"),
            "optimize_aoe": dict(optimize_aoe=False),
            "cascade": dict(cascade=False),
            "seed": dict(seed=7),
            "index_maintenance": dict(index_maintenance="auto"),
            "num_shards": dict(num_shards=3),
            "shard_by": dict(shard_by="player"),
            "parallelism": dict(parallelism="processes"),
            "max_workers": dict(max_workers=3),
            # endpoints are only dialled by the first sharded tick
            "workers": dict(
                workers=["127.0.0.1:9"], parallelism="processes", num_shards=2
            ),
            "worker_timeout": dict(worker_timeout=5.0),
            "worker_max_frame": dict(worker_max_frame=1 << 20),
            "spectators": dict(spectators=True),
            "spectator_host": dict(spectator_host="localhost"),
            "spectator_port": dict(spectator_port=45123),
            "epoch_log": dict(epoch_log=str(tmp_path / "epochs.log")),
            "epoch_log_checkpoint_every": dict(epoch_log_checkpoint_every=5),
            "epoch_log_fsync": dict(epoch_log_fsync="never"),
            "metrics": dict(metrics=True),
            "trace_path": dict(trace_path=str(tmp_path / "trace.jsonl")),
            "slow_tick_factor": dict(slow_tick_factor=3.0),
        }

    def test_every_field_has_a_probe(self, tmp_path):
        fields = {f.name for f in dataclasses.fields(EngineConfig)}
        assert len(fields) == 22
        assert set(self.probes(tmp_path)) | self.SUPPLIED == fields

    def test_battle_forwards_every_knob(self, tmp_path):
        for kwargs in self.probes(tmp_path).values():
            with BattleSimulation(8, **kwargs) as sim:
                for name, value in kwargs.items():
                    assert getattr(sim.engine.config, name) == value, name

    def test_game_definition_forwards_every_knob(
        self, tmp_path, schema, small_env
    ):
        game = GameDefinition(schema, build_registry(), build_scripts())
        for kwargs in self.probes(tmp_path).values():
            engine = game.engine(
                small_env, lambda combined, rng, tick: combined, **kwargs
            )
            with engine:
                assert engine.game is game
                for name, value in kwargs.items():
                    assert getattr(engine.config, name) == value, name
        with game.engine(small_env, None) as engine:
            assert engine.config.shard_by == schema.key

    def test_field_names_are_parameters_of_engine_config_only(self):
        fields = {f.name for f in dataclasses.fields(EngineConfig)}
        for fn, consumed in [
            (BattleSimulation.__init__, {"seed", "epoch_log"}),
            (GameDefinition.engine, {"shard_by"}),
            (run_battle, set()),
        ]:
            declared = set(inspect.signature(fn).parameters)
            assert declared & fields == consumed, fn.__qualname__

    @pytest.mark.parametrize(
        "knob",
        [
            "worker_scope",
            "no_such_knob",
            # deleted with the EWMA cost model and the snapshot modes
            "auto_policy",
            "incremental_threshold",
            "worker_broadcast",
            "spectator_broadcast",
        ],
    )
    def test_unknown_keyword_is_a_type_error_naming_it(
        self, knob, schema, small_env
    ):
        game = GameDefinition(schema, build_registry(), build_scripts())
        with pytest.raises(TypeError, match=knob):
            BattleSimulation(8, **{knob: "shards"})
        with pytest.raises(TypeError, match=knob):
            game.engine(small_env, None, **{knob: "shards"})
        with pytest.raises(TypeError, match=knob):
            run_battle(8, ticks=1, **{knob: "shards"})

    def test_threads_parallelism_is_rejected(self):
        with pytest.raises(ValueError, match="unknown parallelism 'threads'"):
            BattleSimulation(8, parallelism="threads", num_shards=2)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
