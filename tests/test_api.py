"""The public facade: compile, explain, run."""

import builtins
import dataclasses
import inspect
import io
import sys
import tokenize as pytokenize

import pytest

import repro
from repro.api import (
    GameDefinition,
    compile_script,
    explain_script,
    run_battle,
)
from repro.engine import compile as compile_module
from repro.engine.clock import EngineConfig
from repro.engine.compile import CallSite
from repro.engine.decision import DecisionRunner
from repro.game.battle import BattleSimulation
from repro.game.scripts import (
    ARCHER_SCRIPT,
    FIGURE_3_SCRIPT,
    HEALER_SCRIPT,
    KNIGHT_SCRIPT,
    build_registry,
    build_scripts,
)
from repro.game.units import UNIT_TYPES
from repro.sgl.builtins import AggregateFunction, FunctionRegistry
from repro.sgl.errors import SglNameError, SglTypeError
from repro.sgl.parser import parse_script
from repro.sgl.tokens import TokenKind
from repro.sgl.tokens import tokenize as tokenize_sgl


class TestCompileScript:
    def test_valid(self, registry, schema):
        script = compile_script(
            "main(u) { perform UseWeapon(u) }", registry, schema
        )
        assert script.main.name == "main"

    def test_invalid_rejected(self, registry):
        with pytest.raises(SglNameError):
            compile_script("main(u) { perform Nothing(u) }", registry)

    @pytest.mark.parametrize(
        "source, error",
        [
            pytest.param(
                "main(u) { (let c = CountEnemiesInRange(u, u.range)) "
                "if c > 0 then perform UseWeapon(u) }",
                None, id="valid",
            ),
            pytest.param(
                "main(u) { if x > 0 then perform UseWeapon(u) }",
                SglNameError, id="unbound_name",
            ),
            pytest.param(
                "main(u) { if 1 = 1 then (let x = 1) perform UseWeapon(u); "
                "if x > 0 then perform UseWeapon(u) }",
                SglNameError, id="let_scoping_is_downward_only",
            ),
            pytest.param(
                "main(u) { (let c = Mystery(u)) perform UseWeapon(u) }",
                SglNameError, id="unknown_aggregate",
            ),
            pytest.param(
                "main(u) { perform Mystery(u) }",
                SglNameError, id="unknown_action",
            ),
            pytest.param(
                "main(u) { (let c = CountEnemiesInRange(u)) "
                "perform UseWeapon(u) }",
                SglTypeError, id="aggregate_arity",
            ),
            pytest.param(
                "main(u) { perform FireAt(u) }",
                SglTypeError, id="action_arity",
            ),
            pytest.param(
                "main(u) { perform Helper(u, 1) } Helper(w) { }",
                SglTypeError, id="defined_function_arity",
            ),
            pytest.param(
                "main(u) { (let r = Random(1, 2, 3)) perform UseWeapon(u) }",
                SglTypeError, id="random_arity",
            ),
            pytest.param(
                "main() { }", SglTypeError, id="function_needs_unit_param"
            ),
            pytest.param(
                "main(u) { perform H() } H() { }",
                SglTypeError, id="helper_needs_unit_param",
            ),
            pytest.param(
                "main(u) { if u.health < _HEAL_AURA then "
                "perform UseWeapon(u) }",
                None, id="constants_are_bound",
            ),
            pytest.param(
                "main(u) { if u.nosuchattr > 0 then perform UseWeapon(u) }",
                SglNameError, id="unknown_unit_attribute",
            ),
            pytest.param(
                "main(u) { (let u = NearestEnemy(u)) "
                "if u.nosuchattr > 0 then perform UseWeapon(u) }",
                None, id="let_rebound_unit_is_not_checked",
            ),
            pytest.param(
                "main(u) { perform H(u) } "
                "H(w) { if w.nosuchattr > 0 then perform UseWeapon(w) }",
                None, id="helper_parameter_is_not_checked",
            ),
            pytest.param(KNIGHT_SCRIPT, None, id="knight"),
            pytest.param(ARCHER_SCRIPT, None, id="archer"),
            pytest.param(HEALER_SCRIPT, None, id="healer"),
        ],
    )
    def test_validation(self, source, error, registry, schema):
        if error is None:
            compile_script(source, registry, schema)
        else:
            with pytest.raises(error):
                compile_script(source, registry, schema)



#: A recursive script: the plan translator refused it (inlining depth),
#: the compiler lowers each function once.
LOOP_SCRIPT = """
main(u) { perform Loop(u, 3) }
Loop(u, n) {
  if n > 0 then perform Loop(u, n - 1)
  else if CountEnemiesInRange(u, u.range) > 0 then perform UseWeapon(u)
}
"""

#: An aggregate under a short-circuit operand: evaluated per frame.
SHORT_CIRCUIT_SCRIPT = """
main(u) {
  if u.cooldown = 0 and CountEnemiesInRange(u, u.range) > 0 then
    (let t = WeakestEnemyInRange(u, u.range)) perform FireAt(u, t.key)
  else perform MoveInDirection(u, 1, 0)
}
"""

#: Every identifier and string literal distinctive, so none can match a
#: generated name by accident.
EXPLAINED_SCRIPT = """
main(unit_zeta) {
  (let count_omega = CountEnemiesInRange(unit_zeta, unit_zeta.sight))
  (let label_psi = 'string_literal_kappa') {
    if count_omega > 0 and unit_zeta.unittype = label_psi then
      perform Helper_phi(unit_zeta, count_omega / 2)
  }
}
Helper_phi(who_chi, amount_tau) {
  perform MoveInDirection(who_chi, amount_tau, _HEALER_RANGE)
}
"""


def evaluation_of_caller(code) -> str:
    """How the compiled code calling the evaluator evaluates its site: a
    hoisted call site stores through ``_store_calls``; a per-frame call
    is made by an emitted stage function itself."""
    if code.co_name == "_store_calls":
        return "hoisted"
    assert code.co_filename == "<sgl>", code
    return "per frame"


def record_calls(agg_eval):
    """Wrap *agg_eval* so it records the ``(aggregate, evaluation)``
    pair of every call a compiled script makes, told apart by the
    compiled code making it."""
    received = set()
    evaluate, evaluate_batch = agg_eval.evaluate, agg_eval.evaluate_batch

    def recording_evaluate(function, args, ctx):
        caller = sys._getframe(1).f_code
        received.add((function.name, evaluation_of_caller(caller)))
        return evaluate(function, args, ctx)

    def recording_batch(function, arg_rows, ctxs):
        caller = sys._getframe(1).f_code
        if caller.co_name != "evaluate":  # a batch of one, recorded above
            received.add((function.name, evaluation_of_caller(caller)))
        return evaluate_batch(function, arg_rows, ctxs)

    agg_eval.evaluate = recording_evaluate
    agg_eval.evaluate_batch = recording_batch
    return received


class TestExplainScript:
    def test_figure_3(self):
        result = explain_script(FIGURE_3_SCRIPT, build_registry())
        assert [(r.site.aggregate, r.site.evaluation) for r in result.rows] == [
            ("CountEnemiesInRange", "hoisted"),
            ("CentroidOfEnemies", "hoisted"),
            ("NearestEnemy", "hoisted"),
        ]
        assert result.aggregate_kinds["CountEnemiesInRange"] == "divisible"
        assert result.aggregate_kinds["NearestEnemy"] == "nearest"
        assert result.actions["FireAt"] == "key"
        assert "divisible" in str(result)

    def test_recursive_script_lists_its_call_sites_once(self, registry):
        result = explain_script(LOOP_SCRIPT, registry)
        assert [r.site for r in result.rows] == [
            CallSite("Loop", "CountEnemiesInRange", "hoisted")
        ]
        assert result.actions == {"UseWeapon": "key"}
        with BattleSimulation(40, seed=2) as sim:
            loop = compile_script(LOOP_SCRIPT, sim.registry, sim.schema)
            sim.game.scripts.update(dict.fromkeys(UNIT_TYPES, loop))
            sim.run(1)

    def test_source_is_the_text_compiled_and_holds_no_script_text(
        self, registry, monkeypatch
    ):
        compiled = []

        def recording_compile(source, *args, **kwargs):
            compiled.append(source)
            return builtins.compile(source, *args, **kwargs)

        # the emitter looks ``compile`` up as a module global first, and
        # compiles a text it has not compiled before
        monkeypatch.setattr(
            compile_module, "compile", recording_compile, raising=False
        )
        compile_module._code.cache_clear()
        result = explain_script(EXPLAINED_SCRIPT, registry)
        # the script's module is compiled once, after its actions' probes
        assert compiled[-1] == result.source
        assert compiled.count(result.source) == 1
        monkeypatch.undo()
        runner = DecisionRunner(parse_script(EXPLAINED_SCRIPT), registry)
        assert runner.source == result.source

        script_text = {
            token.text
            for token in tokenize_sgl(EXPLAINED_SCRIPT)
            if token.kind in (TokenKind.NAME, TokenKind.STRING)
        }
        emitted = list(
            pytokenize.generate_tokens(io.StringIO(result.source).readline)
        )
        assert not [t for t in emitted if t.type == pytokenize.STRING]
        names = {t.string for t in emitted if t.type == pytokenize.NAME}
        assert not names & script_text
        for text in script_text:
            assert text not in result.source, text

    def test_native_aggregates_are_listed_as_native(self, registry):
        native = FunctionRegistry(
            aggregates={
                "Zero": AggregateFunction("Zero", ("u",), native=lambda *a: 0)
            },
            actions=registry.actions,
        )
        result = explain_script(
            "main(u) { if Zero(u) = 0 then perform UseWeapon(u) }", native
        )
        assert [(r.kind, r.cost) for r in result.rows] == [("native", "native")]

    @pytest.mark.parametrize(
        "source",
        [FIGURE_3_SCRIPT, KNIGHT_SCRIPT, ARCHER_SCRIPT, HEALER_SCRIPT,
         SHORT_CIRCUIT_SCRIPT],
        ids=["figure3", "knight", "archer", "healer", "short_circuit"],
    )
    def test_rows_are_what_the_engine_evaluates(self, source):
        result = explain_script(source, build_registry())
        with BattleSimulation(160, seed=5) as sim:
            script = compile_script(source, sim.registry, sim.schema)
            sim.game.scripts.update(dict.fromkeys(UNIT_TYPES, script))
            received = record_calls(sim.engine.agg_eval)
            sim.run(1)
            runners = [sim.engine.decision.runner(t) for t in UNIT_TYPES]
        assert received
        assert received <= {
            (r.site.aggregate, r.site.evaluation) for r in result.rows
        }
        for runner in runners:
            assert [r.site for r in result.rows] == list(runner.call_sites)
            assert result.actions == runner.actions
        if source is SHORT_CIRCUIT_SCRIPT:
            assert ("CountEnemiesInRange", "per frame") in received


class TestRunBattle:
    def test_returns_summary(self):
        summary = run_battle(30, ticks=3, mode="indexed", seed=1)
        assert summary.ticks == 3
        assert summary.total_time > 0

    def test_naive_mode(self):
        summary = run_battle(20, ticks=2, mode="naive", seed=1)
        assert summary.ticks == 2

    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_invalid_max_workers_rejected(self, max_workers):
        with pytest.raises(ValueError, match="max_workers"):
            BattleSimulation(
                10, num_shards=2, parallelism="processes",
                max_workers=max_workers,
            )


class TestKnobsDeclaredOnce:
    """``EngineConfig`` is the one declaration of the knob list: the
    battle, ``GameDefinition.engine`` and ``run_battle`` forward to it."""

    @staticmethod
    def probes(tmp_path):
        """One non-default value per knob, plus the knobs it needs set."""
        return {
            "mode": dict(mode="naive"),
            "seed": dict(seed=7),
            "num_shards": dict(num_shards=3),
            "shard_by": dict(shard_by="player"),
            "parallelism": dict(parallelism="processes"),
            "max_workers": dict(max_workers=3),
            "spectators": dict(spectators=True),
            "epoch_log": dict(epoch_log=str(tmp_path / "epochs.log")),
            "epoch_log_checkpoint_every": dict(epoch_log_checkpoint_every=5),
            "epoch_log_fsync": dict(epoch_log_fsync="never"),
            "metrics": dict(metrics=True),
            "trace_path": dict(trace_path=str(tmp_path / "trace.jsonl")),
            "slow_tick_factor": dict(slow_tick_factor=3.0),
        }

    def test_every_field_has_a_probe(self, tmp_path):
        fields = {f.name for f in dataclasses.fields(EngineConfig)}
        assert len(fields) == 13
        assert set(self.probes(tmp_path)) == fields

    def test_battle_forwards_every_knob(self, tmp_path):
        for kwargs in self.probes(tmp_path).values():
            with BattleSimulation(8, **kwargs) as sim:
                for name, value in kwargs.items():
                    if name == "epoch_log":  # the battle attaches it itself
                        assert sim.engine.epoch_log.path == value
                        assert sim.engine.config.epoch_log is None
                    else:
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
            # one default: the engine resolves shard_by=None to the key
            assert engine.config.shard_by is None
            assert engine._shard_conf[0] == schema.key

    def test_field_names_are_parameters_of_engine_config_only(self):
        fields = {f.name for f in dataclasses.fields(EngineConfig)}
        for fn, consumed in [
            (BattleSimulation.__init__, {"seed", "epoch_log"}),
            (GameDefinition.engine, set()),
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
            # structure / lowering parameters, no longer engine knobs
            "cascade",
            "optimize_aoe",
            # derived from the rows, or settable elsewhere, or constants
            "spatial_extent",
            "spectator_host",
            "spectator_port",
            "worker_timeout",
            # deleted with the remote decision workers
            "workers",
            "worker_max_frame",
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
        with pytest.raises(TypeError, match=knob):
            EngineConfig(**{knob: 1})

    def test_threads_parallelism_is_rejected(self):
        with pytest.raises(ValueError, match="unknown parallelism 'threads'"):
            BattleSimulation(8, parallelism="threads", num_shards=2)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
