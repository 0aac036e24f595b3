"""AoE ⊕ optimisation (Section 5.4) and Example 4.1 post-processing."""

import pytest

from repro.engine.decision import DecisionRunner
from repro.engine.effects import AoeRecord, resolve_aoe
from repro.engine.evaluator import NaiveEvaluator
from repro.engine.postprocess import example_41_postprocess
from repro.engine.rng import TickRandom
from repro.sgl.evalterm import EvalContext
from repro.sgl.parser import parse_script
from tests.conftest import action_shapes, combine_effects, make_env


def run_decisions(script_src, env, registry, *, indexed):
    script = parse_script(script_src)
    runner = DecisionRunner(script, registry, indexed=indexed)
    rng = TickRandom(3, tick=1)
    rows, aoe = [], []
    by_key = env.by_key()

    rt = EvalContext(
        env=env, registry=registry, agg_eval=NaiveEvaluator(), rng=rng
    )

    for unit in env.rows:
        runner.run_unit(unit, rt, by_key, rows, aoe)
    return rows, aoe


class TestAoeEquivalence:
    def test_heal_deferred_equals_scan(self, registry, schema):
        env = make_env(schema, n=30, grid=15, seed=4)
        script = "main(u) { if u.unittype = 'healer' then perform Heal(u) }"
        scan_rows, scan_aoe = run_decisions(
            script, env, registry, indexed=False
        )
        assert not scan_aoe
        deferred_rows, deferred_aoe = run_decisions(
            script, env, registry, indexed=True
        )
        assert deferred_aoe  # healers were deferred
        a = combine_effects(env, registry, scan_rows, [])
        b = combine_effects(env, registry, deferred_rows, deferred_aoe)
        assert a == b

    def test_overlapping_auras_nonstackable(self, registry, schema):
        # two healers whose auras overlap: a unit in both gets ONE aura
        env = make_env(schema, n=12, grid=8, seed=1)
        for row in env.rows:
            row["player"] = 0
        env.rows[0]["unittype"] = "healer"
        env.rows[1]["unittype"] = "healer"
        script = "main(u) { if u.unittype = 'healer' then perform Heal(u) }"
        rows, aoe = run_decisions(script, env, registry, indexed=True)
        combined = combine_effects(env, registry, rows, aoe)
        heal = registry.constants["_HEAL_AURA"]
        for row in combined:
            assert row["inaura"] in (0, heal)  # never 2×heal

    def test_aoe_respects_player_partition(self, registry, schema):
        env = make_env(schema, n=20, grid=10, seed=2)
        for row in env.rows:
            row["unittype"] = "knight"  # exactly one healer below
        env.rows[0]["unittype"] = "healer"
        script = "main(u) { if u.unittype = 'healer' then perform Heal(u) }"
        rows, aoe = run_decisions(script, env, registry, indexed=True)
        combined = combine_effects(env, registry, rows, aoe)
        healer_player = env.rows[0]["player"]
        for row in combined:
            if row["inaura"] > 0:
                assert row["player"] == healer_player

    def test_empty_records(self, registry, schema):
        env = make_env(schema, n=5)
        assert resolve_aoe([], env.rows, schema, {}, {}) == []

    def test_sum_tagged_aoe_accumulates(self, registry, schema):
        env = make_env(schema, n=6, grid=5, seed=3)
        shapes = action_shapes(registry)
        record = AoeRecord(
            action="Heal", attr="inaura", value=3,
            center=(2.0, 2.0), extents=(10.0, 10.0),
            eq_vals=(0,), neq_vals=(),
        )
        out = resolve_aoe(
            [record, record], env.rows, schema, shapes, registry.constants
        )
        # max-tagged inaura: two identical records still give 3
        assert all(r["inaura"] == 3 for r in out)


class TestExample41:
    def make_combined(self, schema, **overrides):
        env = make_env(schema, n=1)
        row = env.rows[0]
        row.update(overrides)
        return env

    def test_damage_reduces_health(self, schema):
        env = self.make_combined(schema, health=10, damage=4)
        out = example_41_postprocess(env)
        assert out.rows[0]["health"] == 6

    def test_aura_heals(self, schema):
        env = self.make_combined(schema, health=5, max_health=10, inaura=3)
        out = example_41_postprocess(env)
        assert out.rows[0]["health"] == 8

    def test_healing_clamped_at_max(self, schema):
        env = self.make_combined(schema, health=9, max_health=10, inaura=5)
        out = example_41_postprocess(env)
        assert out.rows[0]["health"] == 10

    def test_dead_removed(self, schema):
        env = self.make_combined(schema, health=3, damage=5)
        out = example_41_postprocess(env)
        assert len(out) == 0

    def test_cooldown_decrements_and_reload(self, schema):
        env = self.make_combined(schema, cooldown=3)
        out = example_41_postprocess(env, time_reload=2)
        assert out.rows[0]["cooldown"] == 2
        env = self.make_combined(schema, cooldown=0, weaponused=1)
        out = example_41_postprocess(env, time_reload=2)
        assert out.rows[0]["cooldown"] == 1  # 0 - 1 + 1*2, floored at 0

    def test_movement_normalised(self, schema):
        env = self.make_combined(
            schema, posx=0, posy=0, movevect_x=3.0, movevect_y=4.0
        )
        out = example_41_postprocess(env, walk_dist_per_tick=1.0)
        row = out.rows[0]
        assert row["posx"] == pytest.approx(0.6)
        assert row["posy"] == pytest.approx(0.8)

    def test_short_move_not_overshot(self, schema):
        env = self.make_combined(
            schema, posx=0, posy=0, movevect_x=0.5, movevect_y=0.0
        )
        out = example_41_postprocess(env, walk_dist_per_tick=2.0)
        assert out.rows[0]["posx"] == pytest.approx(0.5)

    def test_effect_attributes_reset(self, schema):
        env = self.make_combined(schema, damage=2, movevect_x=1.0)
        out = example_41_postprocess(env)
        row = out.rows[0]
        assert row["damage"] == 0 and row["movevect_x"] == 0
