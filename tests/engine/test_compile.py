"""Differential tests: compiled closures ≡ the reference semantics.

:mod:`repro.engine.compile` lowers terms, conditions, probe terms and
whole scripts to closures; :mod:`repro.sgl.evalterm` and
:mod:`repro.sgl.interp` are the oracle.  Every check here runs both on
the same inputs and demands the same value (same type, NaN == NaN) or
the same exception class.

The one documented difference: unbound names, unknown functions and
wrong arities are rejected when the closure is *built*, not when the
offending node is first reached -- so where the compiler refuses, the
tests require a statically visible cause, and that the oracle raises
the same class whenever it reaches the node (always, for terms: they
have no short-circuit).
"""

import importlib
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.shapes import classify_action, classify_aggregate, names_in
from repro.engine.compile import (
    Probe,
    compile_cond,
    compile_filter,
    compile_term,
    frame_scope,
    row_scope,
)
from repro.engine.decision import DecisionRunner, compile_action
from repro.engine.evaluator import IndexedEvaluator, NaiveEvaluator
from repro.engine.rng import TickRandom
from repro.game import scripts as game_scripts
from repro.sgl import ast
from repro.sgl.errors import SglError, SglNameError, SglRuntimeError, SglTypeError
from repro.sgl.evalterm import EvalContext, eval_cond, eval_term
from repro.sgl.interp import reference_tick
from repro.sgl.parser import parse_condition, parse_script, parse_term
from repro.sgl.sqlspec import apply_action_scan
from repro.sgl.values import Record, Vec
from tests.conftest import combine_effects, make_env

# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def same(a, b) -> bool:
    """Value-for-value equality: same type, NaN equal to itself."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, Vec):
        return same(a.items, b.items)
    if isinstance(a, Record):
        return same(list(a.as_dict().items()), list(b.as_dict().items()))
    return a == b


def outcome(thunk):
    try:
        return ("ok", thunk())
    except (SglError, ArithmeticError, TypeError, ValueError, KeyError) as exc:
        return ("raised", type(exc))


def assert_same_outcome(got, want, what=""):
    assert got[0] == want[0] and (
        same(got[1], want[1]) if got[0] == "ok" else got[1] is want[1]
    ), f"{what}: compiled {got!r} != reference {want!r}"


#: One row with every awkward value: NULL, zero, a missing attribute
#: (``armor``), a nested record and vector.
def awkward_unit(schema):
    row = make_env(schema, n=1).rows[0]
    row.update(health=None, damage=0)
    del row["armor"]
    return row


def bindings_for(schema):
    return {
        "u": awkward_unit(schema),
        "w": make_env(schema, n=2).rows[1],
        "x": 3,
        "z": 0,
        "h": 0.5,
        "n": None,
        "s": "abc",
        "v": Vec((1, 2)),
        "r": Record({"x": 1.0, "y": None}),
        "k": Record({"x": 2.0, "y": 4.0}),
    }


def rng_fn(row, i):
    return (hash((row.get("key"), i)) & 0xFFFF) + 1


def make_ctx(env, registry, bindings, unit, agg_eval=None):
    return EvalContext(
        env=env,
        registry=registry,
        agg_eval=agg_eval or NaiveEvaluator(),
        rng=rng_fn,
        bindings=dict(bindings),
        unit=unit,
    )


def check_term_or_cond(node, env, registry, bindings, *, is_cond):
    """Compile *node* over a frame of *bindings*; compare with the oracle."""
    names = list(bindings)
    unit = bindings.get("u")
    ref_ctx = make_ctx(env, registry, bindings, unit)
    ref = outcome(
        lambda: (eval_cond if is_cond else eval_term)(node, ref_ctx)
    )
    rt = make_ctx(env, registry, {}, unit)
    frame = [rt, *bindings.values()]
    scope = frame_scope(names, registry)
    try:
        fn = (compile_cond if is_cond else compile_term)(node, scope)
    except SglNameError:
        unbound = names_in(node) - set(names) - set(registry.constants)
        assert unbound, f"compile refused {node} without an unbound name"
        if not is_cond:  # terms always reach every node or fail earlier
            assert ref[0] == "raised"
        return
    got = outcome(lambda: fn(frame))
    if is_cond and got[0] == "ok" and ref[0] == "ok":
        got, ref = ("ok", bool(got[1])), ("ok", bool(ref[1]))
    assert_same_outcome(got, ref, str(node))


# ---------------------------------------------------------------------------
# Generated terms and conditions
# ---------------------------------------------------------------------------

NAMES = ["u", "w", "x", "z", "h", "n", "s", "v", "r", "k", "_BASE_AC", "zz"]
ATTRS = ["posx", "health", "damage", "armor", "key", "x", "y", "nope"]
MATH = ["abs", "sqrt", "floor", "sign", "step", "nonsql_max", "norm", "vec", "log"]

leaf = st.one_of(
    st.sampled_from([0, 1, 2, -3, 0.5, 2.0]).map(ast.Num),
    st.sampled_from(["abc", ""]).map(ast.Str),
    st.sampled_from(NAMES).map(ast.Name),
)


def extend_term(children):
    pair = st.tuples(children, children)
    return st.one_of(
        st.builds(ast.FieldAccess, children, st.sampled_from(ATTRS)),
        st.builds(
            lambda op, lr: ast.BinOp(op, *lr), st.sampled_from("+-*/%"), pair
        ),
        st.builds(ast.Neg, children),
        st.builds(lambda lr: ast.VecLit(lr), pair),
        st.builds(
            lambda name, args: ast.Call(name, tuple(args)),
            st.sampled_from(MATH),
            st.lists(children, min_size=1, max_size=2),
        ),
        st.builds(lambda i: ast.Call("Random", (i,)), children),
        st.builds(lambda lr: ast.Call("Random", lr), pair),
        st.builds(
            lambda u, radius: ast.Call("CountEnemiesInRange", (u, radius)),
            st.sampled_from(["u", "w", "n"]).map(ast.Name),
            children,
        ),
    )


terms = st.recursive(leaf, extend_term, max_leaves=8)

compares = st.builds(
    ast.Compare, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), terms, terms
)


def extend_cond(children):
    return st.one_of(
        st.builds(ast.And, children, children),
        st.builds(ast.Or, children, children),
        st.builds(ast.Not, children),
    )


conds = st.recursive(
    st.one_of(compares, st.booleans().map(ast.BoolLit)), extend_cond, max_leaves=4
)

GENERATED = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestGeneratedTermsAndConditions:
    @GENERATED
    @given(term=terms)
    def test_terms(self, term, schema, registry):
        env = make_env(schema, n=8, grid=12)
        check_term_or_cond(
            term, env, registry, bindings_for(schema), is_cond=False
        )

    @GENERATED
    @given(cond=conds)
    def test_conditions(self, cond, schema, registry):
        env = make_env(schema, n=8, grid=12)
        check_term_or_cond(
            cond, env, registry, bindings_for(schema), is_cond=True
        )

    @GENERATED
    @given(term=terms)
    def test_row_terms(self, term, schema, registry):
        """Row frames (index measures and build filters): ``e`` only."""
        row = awkward_unit(schema)
        ref_ctx = make_ctx(None, registry, {"e": row}, None)
        ref = outcome(lambda: eval_term(term, ref_ctx))
        try:
            fn = compile_term(term, row_scope(registry.constants))
        except SglNameError:
            assert names_in(term) - {"e"} - set(registry.constants)
            return
        except SglTypeError:
            # row frames carry no runtime record
            assert any(
                isinstance(t, ast.Call)
                and t.name in ("Random", "CountEnemiesInRange")
                for t in ast.walk_terms(term)
            )
            return
        assert_same_outcome(outcome(lambda: fn(row)), ref, str(term))


class TestStaticErrors:
    """What moved from tick time to compile time, and its class."""

    @pytest.mark.parametrize(
        "src, error",
        [
            ("zz + 1", SglNameError),
            ("Nope(u)", SglNameError),
            ("CountEnemiesInRange(u)", SglTypeError),
            ("Random(1, 2, 3)", SglTypeError),
        ],
    )
    def test_term_errors_match_the_oracle(self, src, error, schema, registry):
        term = parse_term(src)
        bindings = bindings_for(schema)
        with pytest.raises(error):
            compile_term(term, frame_scope(list(bindings), registry))
        ctx = make_ctx(make_env(schema, n=2), registry, bindings, bindings["u"])
        with pytest.raises(error):
            eval_term(term, ctx)

    @pytest.mark.parametrize(
        "src, error",
        [
            ("main(u) { if 1 = 2 then perform Warp(u) }", SglNameError),
            ("main(u) { if 1 = 2 then perform UseWeapon(u, 1) }", SglTypeError),
            ("main(u) { if 1 = 2 then perform Go(u) } Go(a, b) { }", SglTypeError),
            ("main(u) { if 1 = 2 then (let a = b) perform UseWeapon(u) }",
             SglNameError),
            ("main(u, v) { }", SglTypeError),
            ("main(u) { perform H() } H() { }", SglTypeError),
        ],
    )
    def test_script_errors_are_eager(self, src, error, registry):
        # the branch is never taken, yet lowering refuses the script
        with pytest.raises(error):
            DecisionRunner(parse_script(src), registry)


# ---------------------------------------------------------------------------
# Scripts: DecisionRunner ≡ Interpreter
# ---------------------------------------------------------------------------

FIXTURE_SCRIPTS = {
    "figure3": game_scripts.FIGURE_3_SCRIPT,
    "knight": game_scripts.KNIGHT_SCRIPT,
    "archer": game_scripts.ARCHER_SCRIPT,
    "healer": game_scripts.HEALER_SCRIPT,
    "self_move": "main(u) { perform MoveInDirection(u, 1, 2) }",
    "fire_at_nearest": (
        "main(u) { (let t = NearestEnemy(u)) perform FireAt(u, t.key); "
        "perform UseWeapon(u) }"
    ),
    "heal": "main(u) { if u.unittype = 'healer' then perform Heal(u) }",
    "branches": (
        "main(u) { if u.player = 0 then { perform MoveInDirection(u, 1, 0); "
        "perform UseWeapon(u) } else perform MoveInDirection(u, 0 - 1, 0) }"
    ),
    "defined_call": (
        "main(u) { perform Go(u, 3) } "
        "Go(w, dist) { perform MoveInDirection(w, dist, dist) }"
    ),
    "shadowing": (
        "main(u) { (let a = 1) { (let a = a + 1) perform MoveInDirection(u, a, 0); "
        "perform MoveInDirection(u, 0, a) } }"
    ),
    "recursion": (
        "main(u) { perform Down(u, 3) } "
        "Down(w, n) { if n > 0 then { perform MoveInDirection(w, n, 0); "
        "perform Down(w, n - 1) } }"
    ),
    "null_target": "main(u) { (let t = NearestEnemy(u)) perform FireAt(u, t.key) }",
    "random": "main(u) { perform MoveInDirection(u, Random(1) % 3, Random(u, 2) % 3) }",
    "division_by_zero": "main(u) { perform MoveInDirection(u, 1 / u.damage, 0) }",
    "missing_attr": "main(u) { perform MoveInDirection(u, u.nope, 0) }",
}


def run_compiled(script, env, registry, rng, *, indexed):
    runner = DecisionRunner(script, registry, indexed=indexed)
    agg_eval = IndexedEvaluator(registry) if indexed else NaiveEvaluator()
    if indexed:
        agg_eval.begin_tick(env)
    rows: list = []
    aoe: list = []
    by_key = env.by_key() if indexed else None

    rt = EvalContext(env=env, registry=registry, agg_eval=agg_eval, rng=rng)
    for unit in env.rows:
        runner.run_unit(unit, rt, by_key, rows, aoe)
    return combine_effects(env, registry, rows, aoe)


def check_script(script, env, registry, *, indexed):
    rng = TickRandom(11, tick=1)
    want = outcome(lambda: reference_tick(env, lambda u: script, registry, rng))
    got = outcome(
        lambda: run_compiled(script, env, registry, rng, indexed=indexed)
    )
    assert got[0] == want[0], f"compiled {got!r} != reference {want!r}"
    assert got[1] == want[1] if got[0] == "ok" else got[1] is want[1]


@pytest.mark.parametrize("indexed", [False, True], ids=["scan", "indexed"])
@pytest.mark.parametrize("name", sorted(FIXTURE_SCRIPTS))
def test_fixture_scripts_match_the_interpreter(name, indexed, schema, registry):
    script = parse_script(FIXTURE_SCRIPTS[name])
    env = make_env(schema, n=20, grid=14, seed=5)
    check_script(script, env, registry, indexed=indexed)
    # one team only: every enemy aggregate is NULL / empty
    for row in env.rows:
        row["player"] = 0
    check_script(script, env, registry, indexed=indexed)


small_terms = st.recursive(
    st.one_of(
        st.sampled_from([0, 1, 2, -1]).map(ast.Num),
        # never the bare row ``u``: a row-valued effect fails inside ⊕,
        # which the oracle applies per Seq and the engine once per tick
        st.sampled_from(["a", "b", "zz"]).map(ast.Name),
        st.builds(
            ast.FieldAccess,
            st.just(ast.Name("u")),
            st.sampled_from(["posx", "player", "key", "nope"]),
        ),
        st.just(ast.FieldAccess(ast.Call("NearestEnemy", (ast.Name("u"),)), "key")),
    ),
    lambda c: st.builds(
        lambda op, l, r: ast.BinOp(op, l, r), st.sampled_from("+-*/"), c, c
    ),
    max_leaves=4,
)
small_conds = st.builds(
    ast.Compare, st.sampled_from(["=", "<", ">="]), small_terms, small_terms
)
U = ast.Name("u")
performs = st.one_of(
    st.just(ast.Perform("UseWeapon", (U,))),
    st.builds(lambda x, y: ast.Perform("MoveInDirection", (U, x, y)),
              small_terms, small_terms),
    st.builds(lambda k: ast.Perform("FireAt", (U, k)), small_terms),
    st.builds(lambda x: ast.Perform("Helper", (U, x)), small_terms),
)


def extend_action(children):
    return st.one_of(
        st.builds(ast.Let, st.sampled_from(["a", "b"]), small_terms, children),
        st.builds(ast.Seq, children, children),
        st.builds(ast.If, small_conds, children, st.none() | children),
    )


actions = st.recursive(st.just(ast.Skip()) | performs, extend_action, max_leaves=5)
HELPER = ast.FunctionDef(
    "Helper",
    ("w", "d"),
    ast.If(
        ast.Compare(">", ast.Name("d"), ast.Num(0)),
        ast.Perform("MoveInDirection", (ast.Name("w"), ast.Name("d"), ast.Num(1))),
    ),
)


class TestGeneratedScripts:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(body=actions, indexed=st.booleans())
    def test_small_scripts(self, body, indexed, schema, registry):
        script = ast.Script(
            {"main": ast.FunctionDef("main", ("u",), body), "Helper": HELPER}
        )
        env = make_env(schema, n=6, grid=6, seed=2)
        try:
            DecisionRunner(script, registry)
        except SglNameError:
            # only the unbound ``zz`` / out-of-scope lets can cause this
            assert {"zz", "a", "b"} & {
                t.ident for t in ast.walk_terms(body) if isinstance(t, ast.Name)
            }
            return
        check_script(script, env, registry, indexed=indexed)


# ---------------------------------------------------------------------------
# SQL built-ins: probe terms, build closures, actions
# ---------------------------------------------------------------------------


def reference_bounds(shape, ctx):
    """The pre-compiler bounds evaluation, over ``eval_term``."""
    out = []
    for constraint in shape.ranges:
        lo, hi = -math.inf, math.inf
        for bound in constraint.lowers:
            value = float(eval_term(bound.term, ctx))
            lo = max(lo, math.nextafter(value, math.inf) if bound.strict else value)
        for bound in constraint.uppers:
            value = float(eval_term(bound.term, ctx))
            hi = min(hi, math.nextafter(value, -math.inf) if bound.strict else value)
        if lo > hi:
            return None
        out.append((lo, hi))
    return out


def args_for(fn, unit):
    """Plausible arguments for a battle built-in called by *unit*."""
    by_name = {"u": unit, "radius": unit["sight"], "cx": 5.5, "cy": 7,
               "vx": 1, "vy": -2, "target_key": (unit["key"] + 1) % 5}
    return [by_name[p] for p in fn.params]


class TestSqlBuiltins:
    def shapes(self, registry):
        for fn in registry.aggregates.values():
            yield fn, classify_aggregate(fn.spec)
        for fn in registry.actions.values():
            shape = classify_action(fn.spec)
            if shape.kind == "aoe":
                yield fn, shape

    def test_probe_terms_match_eval_term(self, schema, registry):
        env = make_env(schema, n=12, grid=10, seed=3)
        for fn, shape in self.shapes(registry):
            probe = Probe(shape, fn.params, registry)
            for unit in env.rows:
                args = args_for(fn, unit)
                ctx = make_ctx(env, registry, dict(zip(fn.params, args)), unit)
                f = [make_ctx(env, registry, {}, unit), *args, None]
                assert probe.bounds(f) == reference_bounds(shape, ctx), fn.name
                assert probe.cats(f) == (
                    tuple(eval_term(c.value_term, ctx) for c in shape.eq_cats),
                    tuple(eval_term(c.value_term, ctx) for c in shape.neq_cats),
                ), fn.name
                guard = probe.guard is None or bool(probe.guard(f))
                assert guard == all(eval_cond(c, ctx) for c in shape.u_only)

    def test_build_closures_match_eval_term(self, schema, registry):
        rows = make_env(schema, n=10, seed=4).rows + [awkward_unit(schema)]
        scope = row_scope(registry.constants)
        for fn in registry.aggregates.values():
            shape = classify_aggregate(fn.spec)
            keep = compile_filter(shape.e_only, scope)
            measures = [
                (o.term, compile_term(o.term, scope))
                for o in shape.outputs
                if o.term is not None and names_in(o.term) <= {"e"}
            ]
            for row in rows:
                ctx = make_ctx(None, registry, {"e": row}, None)
                want = outcome(
                    lambda: all(eval_cond(c, ctx) for c in shape.e_only)
                )
                got = outcome(lambda: keep is None or bool(keep(row)))
                assert_same_outcome(got, want, fn.name)
                for term, measure in measures:
                    assert_same_outcome(
                        outcome(lambda: measure(row)),
                        outcome(lambda: eval_term(term, ctx)),
                        f"{fn.name}: {term}",
                    )

    @pytest.mark.parametrize("indexed", [False, True])
    def test_actions_match_the_scan(self, indexed, schema, registry):
        env = make_env(schema, n=16, grid=10, seed=6)
        by_key = env.by_key()
        rng = TickRandom(5, tick=2)
        for fn in registry.actions.values():
            action = compile_action(fn, registry, indexed=indexed)
            for unit in env.rows:
                args = args_for(fn, unit)
                rt = EvalContext(env=env, registry=registry,
                                 agg_eval=NaiveEvaluator(), rng=rng, unit=unit)
                rows, aoe = [], []
                action(rt, args, by_key, rows, aoe)
                want = apply_action_scan(fn.spec, dict(zip(fn.params, args)), rt)
                assert combine_effects(env, registry, rows, aoe) == \
                    combine_effects(env, registry, want), fn.name


class TestRowClosureRegressions:
    """The drift the e-only closures used to have (NULL, /0, missing attr)."""

    def test_null_operand_compares_false(self, registry):
        keep = compile_cond(
            parse_condition("e.health < e.max_health"),
            row_scope(registry.constants),
        )
        assert keep({"health": None, "max_health": 10}) is False
        assert keep({"health": 3, "max_health": 10}) is True

    def test_null_propagates_through_measures(self, registry):
        measure = compile_term(
            parse_term("e.health * 2 + 1"), row_scope(registry.constants)
        )
        assert measure({"health": None}) is None

    def test_division_by_zero_is_an_sgl_error(self, registry):
        measure = compile_term(
            parse_term("e.health / e.damage"), row_scope(registry.constants)
        )
        with pytest.raises(SglRuntimeError):
            measure({"health": 4, "damage": 0})

    def test_missing_attribute_is_an_sgl_error(self, registry):
        measure = compile_term(parse_term("e.nope"), row_scope(registry.constants))
        with pytest.raises(SglRuntimeError):
            measure({"health": 4})

    def test_type_errors_are_sgl_type_errors(self, registry):
        keep = compile_cond(
            parse_condition("e.unittype < 3"), row_scope(registry.constants)
        )
        with pytest.raises(SglTypeError):
            keep({"unittype": "knight"})

    def test_naive_and_indexed_agree_over_a_null_build_filter(
        self, schema, registry
    ):
        # CountWoundedFriendliesInRange filters on e.health < e.max_health
        env = make_env(schema, n=20, grid=10, seed=8)
        for row in env.rows[::3]:
            row["health"] = None
        indexed = IndexedEvaluator(registry)
        indexed.begin_tick(env)
        naive = NaiveEvaluator()
        for name in ("CountWoundedFriendliesInRange",
                     "WeakestWoundedFriendlyInRange"):
            fn = registry.aggregates[name]
            for unit in env.rows:
                args = [unit, 6]
                got = indexed.evaluate(
                    fn, args, make_ctx(env, registry, {}, unit, indexed)
                )
                want = naive.evaluate(
                    fn, args, make_ctx(env, registry, {}, unit, naive)
                )
                assert same(got, want), (name, unit["key"])


# ---------------------------------------------------------------------------
# The oracle stays out of the engine's import graph
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("module", ["clock", "decision", "evaluator", "shardexec"])
def test_engine_modules_do_not_reference_the_tree_walker(module):
    import ast as pyast

    mod = importlib.import_module(f"repro.engine.{module}")
    forbidden = {"eval_term", "eval_cond"}
    assert not forbidden & set(vars(mod))
    with open(mod.__file__) as handle:
        tree = pyast.parse(handle.read())
    referenced = set()
    for node in pyast.walk(tree):
        if isinstance(node, pyast.Name):
            referenced.add(node.id)
        elif isinstance(node, pyast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, pyast.alias):
            referenced.add(node.name.rsplit(".", 1)[-1])
    assert not forbidden & referenced
