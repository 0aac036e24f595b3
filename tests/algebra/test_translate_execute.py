"""Set-at-a-time execution ≡ the reference semantics (Section 5.1).

The load-bearing property: for every script, the engine's decision
stage -- naive or indexed evaluation, deferred AoE resolved -- produces
exactly the table the reference interpreter produces.
"""

import pytest

from repro.algebra.shapes import classify_action
from repro.engine.decision import DecisionStage, GameDefinition
from repro.engine.effects import resolve_aoe
from repro.engine.rng import TickRandom
from repro.env.combine import combine_all
from repro.env.table import EnvironmentTable
from repro.sgl.interp import reference_tick
from repro.sgl.parser import parse_script
from tests.conftest import make_env

UNIT_TYPES = ("knight", "archer", "healer")


def stage_tick(stage, env):
    """One decision stage over every unit of *env*, as the engine runs
    it: arm, decide, resolve deferred AoE, ⊕ the effects into *env*."""
    registry = stage.game.registry
    by_key = stage.begin_tick(env)
    ((rows, aoe),) = stage.decide(env, [env.rows], by_key)
    shapes = {name: classify_action(fn.spec) for name, fn in registry.actions.items()}
    effects = EnvironmentTable(env.schema)
    effects.rows.extend(rows)
    effects.rows.extend(
        resolve_aoe(aoe, env.rows, env.schema, shapes, registry.constants)
    )
    return combine_all([env, effects], env.schema)


def check_equivalence(source, registry, schema, n=16, seed=0):
    env = make_env(schema, n=n, seed=seed)
    script = parse_script(source)
    reference = reference_tick(
        env, lambda u: script, registry, TickRandom(seed, tick=1)
    )
    game = GameDefinition(schema, registry, {t: script for t in UNIT_TYPES})
    for mode in ("naive", "indexed"):
        stage = DecisionStage(game, TickRandom(seed, tick=1), mode=mode)
        assert stage_tick(stage, env) == reference, f"{mode} stage diverges"


class TestExecutionEquivalence:
    def test_idle_script(self, registry, schema):
        check_equivalence("main(u) { }", registry, schema)

    def test_unconditional_action(self, registry, schema):
        check_equivalence("main(u) { perform UseWeapon(u) }", registry, schema)

    def test_conditional_on_attribute(self, registry, schema):
        check_equivalence(
            "main(u) { if u.player = 0 then perform MoveInDirection(u, 1, 0) "
            "else perform MoveInDirection(u, 0 - 1, 0) }",
            registry, schema,
        )

    def test_aggregate_condition(self, registry, schema):
        check_equivalence(
            "main(u) { (let c = CountEnemiesInRange(u, 10)) "
            "if c > 1 then perform UseWeapon(u) }",
            registry, schema,
        )

    def test_argmin_target(self, registry, schema):
        check_equivalence(
            "main(u) { (let t = NearestEnemy(u)) perform FireAt(u, t.key) }",
            registry, schema,
        )

    def test_random_in_action(self, registry, schema):
        check_equivalence(
            "main(u) { (let t = NearestEnemy(u)) perform FireAt(u, t.key) }",
            registry, schema, seed=3,
        )

    def test_figure_3(self, registry, schema):
        from repro.game.scripts import FIGURE_3_SCRIPT

        check_equivalence(FIGURE_3_SCRIPT, registry, schema, n=20)

    @pytest.mark.parametrize("script_name", ["knight", "archer", "healer"])
    def test_battle_scripts(self, registry, schema, script_name):
        from repro.game.scripts import (
            ARCHER_SCRIPT,
            HEALER_SCRIPT,
            KNIGHT_SCRIPT,
        )

        source = {
            "knight": KNIGHT_SCRIPT,
            "archer": ARCHER_SCRIPT,
            "healer": HEALER_SCRIPT,
        }[script_name]
        check_equivalence(source, registry, schema, n=20, seed=4)
