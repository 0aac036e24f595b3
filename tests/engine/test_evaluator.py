"""Naive vs indexed aggregate evaluation: per-call and per-batch
equivalence.

The paper's two pluggable evaluators must agree bit-for-bit, including
on argmin/argmax identities.  These tests call every battle aggregate
directly with both evaluators over randomized environments, one call
at a time (``evaluate``) and as call-site batches (``evaluate_batch``).
"""

import pytest

from repro.engine.evaluator import (
    IndexedEvaluator,
    NaiveEvaluator,
    empty_aggregate_result,
)
from repro.env.table import EnvironmentTable, diff_by_key
from repro.game.battle import BattleSimulation
from repro.game.units import unit_row
from repro.serve.queries import QueryEngine, QueryRequest, plain_value, unit_ref
from repro.sgl.evalterm import EvalContext
from repro.sgl.values import Record
from tests.conftest import make_env


def make_ctx(env, registry, agg_eval, unit):
    return EvalContext(
        env=env,
        registry=registry,
        agg_eval=agg_eval,
        rng=lambda row, i: 0,
        bindings={"u": unit},
        unit=unit,
    )


def call_both(registry, env, fn_name, args_for_unit):
    """Evaluate fn for every unit with both evaluators; compare."""
    fn = registry.aggregates[fn_name]
    naive = NaiveEvaluator()
    indexed = IndexedEvaluator(registry)
    indexed.begin_tick(env)
    for unit in env.rows:
        args = args_for_unit(unit)
        ctx_naive = make_ctx(env, registry, naive, unit)
        ctx_indexed = make_ctx(env, registry, indexed, unit)
        expected = naive.evaluate(fn, list(args), ctx_naive)
        got = indexed.evaluate(fn, list(args), ctx_indexed)
        assert got == expected, (
            f"{fn_name} diverges for unit {unit['key']}: "
            f"{got!r} != {expected!r}"
        )
    return indexed


def batch_both(registry, env, fn_name, args_for_unit, indexed=None):
    """Evaluate fn for all units as one call-site batch; compare each
    answer with the naive evaluator's."""
    fn = registry.aggregates[fn_name]
    naive = NaiveEvaluator()
    if indexed is None:
        indexed = IndexedEvaluator(registry)
    indexed.begin_tick(env)
    units = env.rows
    got = indexed.evaluate_batch(
        fn,
        [list(args_for_unit(u)) for u in units],
        [make_ctx(env, registry, indexed, u) for u in units],
    )
    for unit, answer in zip(units, got):
        ctx = make_ctx(env, registry, naive, unit)
        expected = naive.evaluate(fn, list(args_for_unit(unit)), ctx)
        assert answer == expected, (
            f"{fn_name} diverges for unit {unit['key']}: "
            f"{answer!r} != {expected!r}"
        )
    return indexed


@pytest.fixture()
def env(schema):
    return make_env(schema, n=40, grid=25, seed=9)


class TestDivisible:
    def test_count_enemies(self, registry, env):
        indexed = call_both(
            registry, env, "CountEnemiesInRange", lambda u: (u, u["sight"])
        )
        assert indexed.stats.get("probe_divisible", 0) == len(env)

    def test_centroid(self, registry, env):
        call_both(registry, env, "CentroidOfEnemies", lambda u: (u, 8))

    def test_zero_dim_group_totals(self, registry, env):
        call_both(registry, env, "CentroidOfFriendlyKnights", lambda u: (u,))

    def test_stddev(self, registry, env):
        call_both(registry, env, "FriendlySpread", lambda u: (u,))

    def test_wounded_filter(self, registry, env):
        for row in env.rows[::3]:
            row["health"] = max(row["health"] - 4, 1)
        call_both(
            registry, env, "CountWoundedFriendliesInRange",
            lambda u: (u, u["sight"]),
        )

    def test_dynamic_point_bounds(self, registry, env):
        call_both(
            registry, env, "CountFriendliesNearPoint",
            lambda u: (u, u["posx"] + 1, u["posy"] - 1, 4),
        )

    def test_empty_radius(self, registry, env):
        call_both(registry, env, "CountEnemiesInRange", lambda u: (u, 0))


class TestNearest:
    def test_nearest_enemy(self, registry, env):
        indexed = call_both(registry, env, "NearestEnemy", lambda u: (u,))
        assert indexed.stats.get("probe_kdtree", 0) == len(env)

    def test_nearest_is_record(self, registry, env):
        fn = registry.aggregates["NearestEnemy"]
        indexed = IndexedEvaluator(registry)
        indexed.begin_tick(env)
        unit = env.rows[0]
        ctx = make_ctx(env, registry, indexed, unit)
        result = indexed.evaluate(fn, [unit], ctx)
        assert isinstance(result, Record)
        assert result.player != unit["player"]


class TestExtreme:
    def test_weakest_enemy_batched(self, registry, env):
        indexed = batch_both(
            registry, env, "WeakestEnemyInRange", lambda u: (u, u["sight"])
        )
        assert indexed.stats.get("probe_sweep", 0) == len(env)
        assert indexed.stats.get("probe_scan", 0) == 0

    def test_single_calls_sweep(self, registry, env):
        # a call outside any batch is a batch of one: it sweeps too
        indexed = call_both(
            registry, env, "WeakestEnemyInRange", lambda u: (u, 7)
        )
        assert indexed.stats.get("probe_sweep", 0) == len(env)
        assert indexed.stats.get("build_sweep", 0) == len(env)
        assert indexed.stats.get("probe_scan", 0) == 0

    def test_mixed_extents_grouped(self, registry, env):
        # different sight per unit type: one sweep per (player, extent)
        indexed = batch_both(
            registry, env, "WeakestEnemyInRange", lambda u: (u, u["sight"])
        )
        groups = {(u["player"], u["sight"]) for u in env.rows}
        assert len(groups) > 2
        assert indexed.stats.get("build_sweep", 0) == len(groups)

    def test_source_on_the_probe_bound(self, registry, schema):
        # b.posx is exactly a.posx - 8: the naive selection includes it,
        # and so must the sweep -- it tests the probe's own bounds, not
        # a centre and half-extent re-derived from them
        env = EnvironmentTable(schema)
        env.rows.append(unit_row(
            0, 0, "knight", 13.76549236509909, 11.45063744705736,
            schema=schema,
        ))
        env.rows.append(unit_row(
            1, 1, "knight", 5.765492365099091, 11.45063744705736,
            schema=schema,
        ))
        assert env.rows[0]["posx"] - 8 == env.rows[1]["posx"]
        indexed = call_both(
            registry, env, "WeakestEnemyInRange", lambda u: (u, 8)
        )
        assert indexed.stats.get("probe_sweep", 0) == 2

    def test_wounded_friendly(self, registry, env):
        for row in env.rows[::2]:
            row["health"] -= 3
        batch_both(
            registry, env, "WeakestWoundedFriendlyInRange",
            lambda u: (u, u["sight"]),
        )
        call_both(
            registry, env, "WeakestWoundedFriendlyInRange",
            lambda u: (u, u["sight"]),
        )


class TestEmptyResults:
    def test_empty_helper_scalar(self, registry):
        fn = registry.aggregates["CountEnemiesInRange"]
        assert empty_aggregate_result(fn.spec.outputs) == 0

    def test_empty_helper_record(self, registry):
        fn = registry.aggregates["CentroidOfEnemies"]
        result = empty_aggregate_result(fn.spec.outputs)
        assert result.x is None and result.y is None

    def test_one_player_world(self, registry, schema):
        env = make_env(schema, n=10)
        for row in env.rows:
            row["player"] = 0  # no enemies anywhere
        call_both(registry, env, "CountEnemiesInRange", lambda u: (u, 10))
        call_both(registry, env, "NearestEnemy", lambda u: (u,))


def battle_args(fn, unit):
    """Plausible arguments for a battle aggregate called by *unit*."""
    by_name = {"u": unit, "radius": unit["sight"], "cx": unit["posx"] + 1,
               "cy": unit["posy"] - 2}
    return [by_name[p] for p in fn.params]


class TestEvaluateBatch:
    """``evaluate_batch`` equals ``evaluate`` row by row, for every
    battle aggregate."""

    @pytest.mark.parametrize("one_team", [False, True])
    def test_every_battle_aggregate(self, registry, schema, one_team):
        env = make_env(schema, n=48, grid=20, seed=4)
        for row in env.rows[::3]:
            row["health"] -= 2  # wounded: the filtered aggregates' sources
        if one_team:
            for row in env.rows:
                row["player"] = 0  # enemy aggregates select nothing
        naive = NaiveEvaluator()
        for fn in registry.aggregates.values():
            want = [
                naive.evaluate(
                    fn, battle_args(fn, u), make_ctx(env, registry, naive, u)
                )
                for u in env.rows
            ]
            indexed = IndexedEvaluator(registry)
            indexed.begin_tick(env)
            ctxs = [make_ctx(env, registry, indexed, u) for u in env.rows]
            batch = indexed.evaluate_batch(
                fn, [battle_args(fn, u) for u in env.rows], ctxs
            )
            single = [
                indexed.evaluate(fn, battle_args(fn, u), ctx)
                for u, ctx in zip(env.rows, ctxs)
            ]
            assert batch == single == want, fn.name


class TestCascadeToggle:
    def test_cascade_off_same_results(self, registry, env):
        fn = registry.aggregates["CountEnemiesInRange"]
        on = IndexedEvaluator(registry, cascade=True)
        off = IndexedEvaluator(registry, cascade=False)
        on.begin_tick(env)
        off.begin_tick(env)
        for unit in env.rows:
            ctx_on = make_ctx(env, registry, on, unit)
            ctx_off = make_ctx(env, registry, off, unit)
            assert on.evaluate(fn, [unit, unit["sight"]], ctx_on) == \
                off.evaluate(fn, [unit, unit["sight"]], ctx_off)


#: A spectator-style query compiled from source: the selection of
#: ``CentroidOfFriendlies`` (``e.player = ...``) with a new measure.
TEAM_HP_SQL = """
function TeamHp(p) returns
SELECT Count(*) AS n, Sum(health) AS hp
FROM E e
WHERE e.player = p;
"""


class TestSharedSelections:
    """Functions over one selection share one divisible index."""

    @pytest.mark.parametrize("registered_first", [False, True])
    def test_compiled_query_joins_a_registered_selection(
        self, registry, schema, registered_first
    ):
        env = make_env(schema, n=40, grid=25, seed=9)
        for row in env.rows[::3]:
            row["health"] -= 5
        qe = QueryEngine(schema, registry, maintenance="incremental")
        naive = NaiveEvaluator()

        def check(new_env, delta=None):
            qe.begin(new_env, delta)
            ctx = make_ctx(new_env, registry, naive, None)
            if registered_first:  # the battle aggregate builds the index
                for unit in new_env.rows[:4]:
                    got = qe.answer(QueryRequest(
                        "aggregate", "CentroidOfFriendlies",
                        args=(unit_ref(unit["key"]),),
                    ))
                    want = naive.evaluate(
                        registry.aggregates["CentroidOfFriendlies"],
                        [unit], ctx,
                    )
                    assert got == plain_value(want)
            for p in (0, 1):
                got = qe.answer(QueryRequest("sgl", source=TEAM_HP_SQL, args=(p,)))
                want = naive.evaluate(qe._compile_sgl(TEAM_HP_SQL), [p], ctx)
                assert got == plain_value(want)

        check(env)
        # the query widened the selection's layout; both readers share it
        assert len(qe.evaluator._div_index) == 1
        new_env = env.copy()
        for row in new_env.rows[:3]:
            row["health"] -= 1
            row["posx"] += 1
        check(new_env, diff_by_key(env, new_env))
        assert qe.evaluator.stats.get("delta_ticks") == 1

    def test_one_divisible_build_per_selection_per_tick(self):
        with BattleSimulation(200, seed=0) as sim:
            sim.tick()  # first calls join their selections' layouts
            evaluator = sim.engine.agg_eval
            assert len(evaluator._selections) == 6  # for 10 functions
            for _ in range(3):
                before = evaluator.stats["build_divisible"]
                sim.tick()
                assert evaluator.stats["build_divisible"] - before == 6
