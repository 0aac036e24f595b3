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
from repro.env.table import EnvironmentTable
from repro.game.battle import BattleSimulation
from repro.game.units import unit_row
from repro.indexes.cell_grid import _MAX_CELL_LOAD
from repro.serve.queries import (
    QueryEngine,
    QueryError,
    QueryRequest,
    plain_value,
    unit_ref,
)
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
        qe = QueryEngine(schema, registry)
        naive = NaiveEvaluator()

        def check(new_env):
            qe.begin(new_env)
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
        check(new_env)
        assert len(qe.evaluator._div_index) == 1

    def test_a_failing_measure_fails_only_its_own_reader(self, registry, schema):
        """A query whose measure no row can evaluate joins the shared
        layout and fails; the selection's other readers keep answering."""
        env = make_env(schema, n=30, grid=20, seed=4)
        qe = QueryEngine(schema, registry)
        qe.begin(env)
        bad = TEAM_HP_SQL.replace("Sum(health)", "Sum(e.nope)")

        def team_hp():
            return [
                qe.answer(QueryRequest("sgl", source=TEAM_HP_SQL, args=(p,)))
                for p in (0, 1)
            ]

        want = team_hp()
        with pytest.raises(QueryError, match="no attribute 'nope'"):
            qe.answer(QueryRequest("sgl", source=bad, args=(0,)))
        assert team_hp() == want
        with pytest.raises(QueryError, match="no attribute 'nope'"):
            qe.answer(QueryRequest("sgl", source=bad, args=(1,)))
        assert team_hp() == want

    def test_one_divisible_build_per_selection_per_tick(self):
        with BattleSimulation(200, seed=0) as sim:
            sim.tick()  # first calls join their selections' layouts
            evaluator = sim.engine.agg_eval
            assert len(evaluator._selections) == 6  # for 10 functions
            for _ in range(3):
                before = evaluator.stats["build_divisible"]
                sim.tick()
                assert evaluator.stats["build_divisible"] - before == 6


#: One function per strategy whose category or range value is a
#: parameter, so a test can pass NULL for it.
NULL_PROBE_SQL = """
function OthersCount(p) returns
SELECT Count(*) AS n FROM E e WHERE e.player <> p;

function SameCount(p) returns
SELECT Count(*) AS n FROM E e WHERE e.player = p;

function OthersNear(p, x, y, r) returns
SELECT Count(*) AS n FROM E e
WHERE e.player <> p AND e.posx >= x - r AND e.posx <= x + r
  AND e.posy >= y - r AND e.posy <= y + r;

function NearestOther(p, x, y) returns
SELECT ArgMin((e.posx - x) * (e.posx - x) + (e.posy - y) * (e.posy - y))
FROM E e WHERE e.player <> p;

function NearestEnemyWithin(u, r) returns
SELECT ArgMin((e.posx - u.posx) * (e.posx - u.posx)
            + (e.posy - u.posy) * (e.posy - u.posy))
FROM E e
WHERE e.player <> u.player AND e.posx >= u.posx - r AND e.posx <= u.posx + r
  AND e.posy >= u.posy - r AND e.posy <= u.posy + r;

function WeakestOther(p, x, y, r) returns
SELECT ArgMin(health) FROM E e
WHERE e.player <> p AND e.posx >= x - r AND e.posx <= x + r
  AND e.posy >= y - r AND e.posy <= y + r;
"""


NAN = float("nan")


class TestNullProbeValues:
    """A NULL or NaN probe value compares false with every row, so the
    naive selection is empty; the indexed evaluator must agree, whichever
    strategy the shape picks (each case failed before: a bare
    ``TypeError`` from ``float(None)``, a NaN bound left open, or every
    group matching).  A NULL or NaN nearest centre selects rows but
    makes every distance NULL or NaN: the reference scan's comparisons
    pick the row."""

    @pytest.fixture(scope="class")
    def null_registry(self, registry):
        extended = registry.copy()
        extended.register_sql(NULL_PROBE_SQL)
        return extended

    @pytest.fixture()
    def battle(self, schema):
        return make_env(schema, n=50, grid=30, seed=3)

    def both_ways(self, registry, env, fn_name, args_for_unit, kind):
        fn = registry.aggregates[fn_name]
        assert IndexedEvaluator(registry)._compiled_shape(fn).shape.kind == kind
        call_both(registry, env, fn_name, args_for_unit)
        batch_both(registry, env, fn_name, args_for_unit)

    @pytest.mark.parametrize(
        "fn_name, args, kind",
        [
            ("CountFriendliesNearPoint", lambda u: (u, None, 5.0, 10), "divisible"),
            ("CountEnemiesInRange", lambda u: (u, None), "divisible"),
            ("CentroidOfEnemies", lambda u: (u, None), "divisible"),
            ("NearestEnemyWithin", lambda u: (u, None), "nearest"),
            ("WeakestEnemyInRange", lambda u: (u, None), "extreme"),
            *[
                pytest.param(fn_name, args, kind, id=f"{fn_name}-nan")
                for fn_name, args, kind in [
                    (
                        "CountFriendliesNearPoint",
                        lambda u: (u, 5.0, 5.0, NAN),
                        "divisible",
                    ),
                    ("CountEnemiesInRange", lambda u: (u, NAN), "divisible"),
                    ("CentroidOfEnemies", lambda u: (u, NAN), "divisible"),
                    ("NearestEnemyWithin", lambda u: (u, NAN), "nearest"),
                    ("WeakestEnemyInRange", lambda u: (u, NAN), "extreme"),
                ]
            ],
        ],
    )
    def test_null_bound_selects_nothing(
        self, null_registry, battle, fn_name, args, kind
    ):
        self.both_ways(null_registry, battle, fn_name, args, kind)

    def test_null_bound_in_a_mixed_batch(self, null_registry, battle):
        # NULL or NaN for some frames only: the others keep their answers
        self.both_ways(
            null_registry, battle, "CountEnemiesInRange",
            lambda u: (u, (u["sight"], None, NAN)[u["key"] % 3]), "divisible",
        )

    @pytest.mark.parametrize(
        "fn_name, args, kind",
        [
            ("OthersCount", lambda u: (None,), "divisible"),
            ("OthersNear", lambda u: (None, u["posx"], u["posy"], 8), "divisible"),
            ("NearestOther", lambda u: (None, u["posx"], u["posy"]), "nearest"),
            ("WeakestOther", lambda u: (None, u["posx"], u["posy"], 8), "extreme"),
        ],
    )
    def test_null_anti_join_value_matches_no_group(
        self, null_registry, battle, fn_name, args, kind
    ):
        self.both_ways(null_registry, battle, fn_name, args, kind)

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(lambda u: (u["player"], None, 5), id="null-x"),
            pytest.param(lambda u: (u["player"], NAN, 5), id="nan-x"),
            pytest.param(lambda u: (u["player"], u["posx"], NAN), id="nan-y"),
            pytest.param(
                lambda u: (
                    u["player"], (u["posx"], None, NAN)[u["key"] % 3], 5
                ),
                id="mixed-batch",
            ),
        ],
    )
    def test_null_or_nan_centre_matches_the_reference_scan(
        self, null_registry, battle, args
    ):
        self.both_ways(null_registry, battle, "NearestOther", args, "nearest")

    def test_null_equality_value_skips_the_null_group(
        self, null_registry, battle
    ):
        for row in battle.rows[::4]:
            row["player"] = None  # a group keyed by NULL exists
        self.both_ways(
            null_registry, battle, "SameCount", lambda u: (None,), "divisible"
        )


#: Range bounds taken straight from an argument, for each strategy.
BOUND_SQL = """
function FromX(x) returns
SELECT Count(*) AS n FROM E e WHERE e.posx >= x AND e.posx <= 1000;

function NearestFromX(x) returns
SELECT ArgMin(e.posx * e.posx + e.posy * e.posy) FROM E e WHERE e.posx >= x;

function WeakestFromX(x, lo, hi) returns
SELECT ArgMin(health) FROM E e
WHERE e.posx >= x AND e.posx <= hi AND e.posy >= lo AND e.posy <= hi;

function FromXOfPlayer(x, p) returns
SELECT Count(*) AS n FROM E e WHERE e.posx >= x AND e.player = p;

function OfPlayerFromX(x, p) returns
SELECT Count(*) AS n FROM E e WHERE e.player = p AND e.posx >= x;
"""

#: Each function of ``BOUND_SQL``, its strategy, and its arguments
#: around the bound under test.
BOUND_CALLS = [
    ("FromX", "divisible", lambda x: [x]),
    ("NearestFromX", "nearest", lambda x: [x]),
    ("WeakestFromX", "extreme", lambda x: [x, -1000, 1000]),
    # player 7 matches no category group: the naive scan compares the
    # bound only when the range conjunct comes first, and the indexed
    # answer must follow it in either order
    ("FromXOfPlayer", "divisible", lambda x: [x, 7]),
    ("OfPlayerFromX", "divisible", lambda x: [x, 7]),
]


class TestNonRealProbeBounds:
    """A bound that is not a real number (a numeric string, an int
    beyond float range) compares with rows only as the naive scan
    compares it, so the indexed evaluator answers that frame with the
    scan: the oracle's answer or its exception, an empty selection
    included.  A bool compares as the int it is."""

    @pytest.fixture(scope="class")
    def bound_registry(self, registry):
        extended = registry.copy()
        extended.register_sql(BOUND_SQL)
        return extended

    @staticmethod
    def outcome(thunk):
        try:
            return ("ok", thunk())
        except Exception as exc:  # noqa: BLE001 - compared by class
            return ("raised", type(exc))

    def check(self, registry, env, fn_name, kind, arg_rows):
        fn = registry.aggregates[fn_name]
        indexed = IndexedEvaluator(registry)
        assert indexed._compiled_shape(fn).shape.kind == kind
        indexed.begin_tick(env)
        naive = NaiveEvaluator()
        ctx = make_ctx(env, registry, naive, None)
        for args in arg_rows:
            want = self.outcome(lambda: naive.evaluate(fn, args, ctx))
            got = self.outcome(
                lambda: indexed.evaluate(
                    fn, args, make_ctx(env, registry, indexed, None)
                )
            )
            assert got == want, (fn_name, args)
        # one batch: the first failing frame's error, or every answer
        want = self.outcome(
            lambda: [naive.evaluate(fn, args, ctx) for args in arg_rows]
        )
        got = self.outcome(
            lambda: indexed.evaluate_batch(
                fn,
                arg_rows,
                [make_ctx(env, registry, indexed, None)] * len(arg_rows),
            )
        )
        assert got == want, fn_name
        return indexed

    @pytest.mark.parametrize(
        "fn_name, kind, args", BOUND_CALLS, ids=[c[0] for c in BOUND_CALLS]
    )
    @pytest.mark.parametrize("n", [10, 0])
    def test_string_bound_matches_the_naive_scan(
        self, bound_registry, schema, fn_name, kind, args, n
    ):
        env = make_env(schema, n=n, grid=10, seed=2)
        self.check(bound_registry, env, fn_name, kind, [args("5")])

    @pytest.mark.parametrize("bound", [True, 10**400, 3, 2.5])
    def test_other_bounds_match_the_naive_scan(
        self, bound_registry, schema, bound
    ):
        env = make_env(schema, n=10, grid=10, seed=2)
        for fn_name, kind, args in BOUND_CALLS:
            self.check(bound_registry, env, fn_name, kind, [args(bound)])

    def test_scanned_frames_in_a_real_batch(self, bound_registry, schema):
        env = make_env(schema, n=10, grid=10, seed=2)
        bounds = [2, True, 10**400, 7.5]
        for fn_name, kind, args in BOUND_CALLS:
            indexed = self.check(
                bound_registry, env, fn_name, kind, [args(b) for b in bounds]
            )
            # 10**400: once called alone, once in the batch
            assert indexed.stats.get("probe_scan") == 2, fn_name


class TestGridOrTree:
    """Which 2-d structure answered: ``probe_grid``/``probe_tree`` and
    ``build_tree`` count it, ``index_counters()`` reports it."""

    def test_battle_probes_count_the_structure(self):
        with BattleSimulation(300, seed=1) as sim:
            evaluator = sim.engine.agg_eval
            for _ in range(3):
                sim.tick()
            stats = evaluator.stats
            assert stats["probe_grid"] > 0
            # every ranged divisible probe reaches a grid or a tree; an
            # anti-join probe may read several groups, one per player here
            assert stats["probe_grid"] + stats.get("probe_tree", 0) >= (
                stats["probe_divisible"] // 2
            )
            # a uniform battle's boxes are small or hold a whole group:
            # no tree is built
            assert stats.get("build_tree", 0) == stats.get("probe_tree", 0) == 0
            counters = evaluator.index_counters()
            assert counters["grid_groups"] == 10  # 2 + 6 + 2 ranged groups
            assert counters["tree_groups"] == 0

    @pytest.fixture()
    def battle(self, schema):
        # 1 % density, as in the reference battle: ~67 units per
        # (player, unit type) group, about one per grid cell
        return make_env(schema, n=400, grid=200, seed=5)

    def test_small_boxes_never_build_a_tree(self, registry, battle):
        indexed = batch_both(
            registry, battle, "CountEnemiesInRange", lambda u: (u, u["sight"])
        )
        # one enemy group per probe (two players)
        assert indexed.stats["probe_grid"] == len(battle)
        assert indexed.stats.get("probe_tree", 0) == 0
        assert indexed.stats.get("build_tree", 0) == 0
        assert indexed.index_counters()["tree_groups"] == 0

    @pytest.mark.parametrize("widths", [2.0, 0.75])
    def test_spread_boxes_scan_the_grid(self, registry, battle, widths):
        # the knights' close-ranks probe: a box `widths` x spread wide
        # around the group's centroid (CentroidOfFriendlyType,
        # FriendlySpread).  At 2 x spread the box holds the group's whole
        # extent, at 0.75 x it is large but partial: both read the cells.
        naive = NaiveEvaluator()

        def near_args(unit):
            ctx = make_ctx(battle, registry, naive, unit)
            c = naive.evaluate(
                registry.aggregates["CentroidOfFriendlyType"], [unit], ctx
            )
            s = naive.evaluate(registry.aggregates["FriendlySpread"], [unit], ctx)
            return unit, c.x, c.y, widths * (s.sx + s.sy)

        args = {u["key"]: near_args(u) for u in battle.rows}
        indexed = batch_both(
            registry, battle, "CountFriendliesNearPoint",
            lambda u: args[u["key"]],
        )
        assert indexed.stats["probe_grid"] == len(battle)
        assert indexed.stats.get("probe_tree", 0) == 0
        assert indexed.stats.get("build_tree", 0) == 0

    def test_a_crowded_group_reads_the_tree(self, registry, battle):
        # player 0's knights packed into a 9 x 9 block: a few cells of
        # the player's grid (side ~14) would hold them all
        knights = [
            u for u in battle.rows if u["player"] == 0 and u["unittype"] == "knight"
        ]
        assert len(knights) > 4 * _MAX_CELL_LOAD
        for i, unit in enumerate(knights):
            unit["posx"], unit["posy"] = 100 + i % 9, 100 + i // 9
        indexed = batch_both(
            registry, battle, "CountEnemiesInRange", lambda u: (u, u["sight"])
        )
        assert indexed.stats["build_tree"] == 1
        assert indexed.index_counters()["tree_groups"] == 1
        # player 1's units probe their enemies: player 0's groups
        enemies_of_1 = sum(u["player"] == 1 for u in battle.rows)
        assert indexed.stats["probe_tree"] == enemies_of_1
        assert indexed.stats["probe_grid"] == len(battle) - enemies_of_1
