"""DecisionRunner: the engine's set-at-a-time script execution.

Must agree with the reference Interpreter under both action lowerings:
scan, and the indexed engine's key lookup and deferred AoE (whose
records are resolved before ⊕).
"""

import pytest

from repro.engine.decision import DecisionRunner
from repro.engine.evaluator import NaiveEvaluator
from repro.sgl.errors import SglNameError
from repro.sgl.evalterm import EvalContext
from repro.sgl.interp import reference_tick
from repro.sgl.parser import parse_script
from tests.conftest import combine_effects, make_env


def run_tick(script_src, env, registry, *, indexed):
    script = parse_script(script_src)
    runner = DecisionRunner(script, registry, indexed=indexed)
    rng = lambda row, i: (hash((row["key"], i)) & 0xFFFF)  # noqa: E731
    rows, aoe = [], []
    by_key = env.by_key() if indexed else None

    rt = EvalContext(
        env=env, registry=registry, agg_eval=NaiveEvaluator(), rng=rng
    )

    for unit in env.rows:
        runner.run_unit(unit, rt, by_key, rows, aoe)
    return combine_effects(env, registry, rows, aoe), rng


@pytest.mark.parametrize("indexed", [True, False])
class TestAgainstReference:
    def check(self, src, registry, schema, indexed, n=14, seed=0):
        env = make_env(schema, n=n, seed=seed)
        got, rng = run_tick(src, env, registry, indexed=indexed)
        script = parse_script(src)
        expected = reference_tick(env, lambda u: script, registry, rng)
        assert got == expected

    def test_self_move(self, registry, schema, indexed):
        self.check(
            "main(u) { perform MoveInDirection(u, 1, 2) }",
            registry, schema, indexed,
        )

    def test_fire_at_nearest(self, registry, schema, indexed):
        self.check(
            "main(u) { (let t = NearestEnemy(u)) perform FireAt(u, t.key); "
            "perform UseWeapon(u) }",
            registry, schema, indexed,
        )

    def test_heal_scan_path(self, registry, schema, indexed):
        self.check(
            "main(u) { if u.unittype = 'healer' then perform Heal(u) }",
            registry, schema, indexed,
        )

    def test_conditionals_and_sequences(self, registry, schema, indexed):
        self.check(
            "main(u) { if u.player = 0 then { "
            "perform MoveInDirection(u, 1, 0); perform UseWeapon(u) } "
            "else perform MoveInDirection(u, 0 - 1, 0) }",
            registry, schema, indexed,
        )

    def test_defined_function_dispatch(self, registry, schema, indexed):
        self.check(
            "main(u) { perform Go(u, 3) } "
            "Go(w, dist) { perform MoveInDirection(w, dist, dist) }",
            registry, schema, indexed,
        )


class TestKeyActionPath:
    def test_null_target_is_noop(self, registry, schema):
        # NULL key (empty aggregate) must fire at nobody, not crash
        env = make_env(schema, n=6)
        for row in env.rows:
            row["player"] = 0  # no enemies: NearestEnemy is NULL
        got, _ = run_tick(
            "main(u) { (let t = NearestEnemy(u)) perform FireAt(u, t.key) }",
            env, registry, indexed=True,
        )
        assert all(row["damage"] == 0 for row in got)

    def test_missing_key_is_noop(self, registry, schema):
        env = make_env(schema, n=4)
        got, _ = run_tick(
            "main(u) { perform FireAt(u, 9999) }",
            env, registry, indexed=True,
        )
        assert all(row["damage"] == 0 for row in got)

    def test_unknown_action_raises(self, registry, schema):
        env = make_env(schema, n=2)
        with pytest.raises(SglNameError):
            run_tick("main(u) { perform Warp(u) }", env, registry,
                     indexed=True)
