"""Differential tests: emitted code ≡ the reference semantics.

:mod:`repro.engine.compile` lowers terms, conditions, probe terms and
whole scripts to emitted Python functions; :mod:`repro.sgl.evalterm`
and :mod:`repro.sgl.interp` are the oracle.  Every check here runs both
on the same inputs and demands the same value (same type, NaN == NaN)
or the same exception class -- for a term or condition both as the
per-frame function :func:`compile_term`/:func:`compile_cond` emit and as
the batch stage a script runs it in, over a batch and over each frame
alone, with the same number of aggregate calls.

Two documented differences: unbound names, unknown functions and wrong
arities are rejected when the code is *emitted*, not when the offending
node is first reached -- so where the compiler refuses, the tests
require a statically visible cause, and that the oracle raises the same
class whenever it reaches the node (always, for terms: they have no
short-circuit).  And a script stage *hoists* each aggregate call in a
strict position -- it runs, for the whole batch, before the stage
evaluates anything else -- so when that call raises, it can pre-empt
another error the oracle meets first.
"""

import importlib
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.shapes import classify_action, classify_aggregate, names_in
from repro.engine.compile import (
    Probe,
    _ScriptLowering,
    compile_cond,
    compile_filter,
    compile_term,
    frame_scope,
    row_scope,
)
from repro.engine.decision import DecisionRunner, compile_action
from repro.engine.evaluator import IndexedEvaluator, NaiveEvaluator
from repro.engine.rng import TickRandom
from repro.env.combine import combine_all
from repro.game import scripts as game_scripts
from repro.sgl import ast
from repro.sgl.errors import SglError, SglNameError, SglRuntimeError, SglTypeError
from repro.sgl.evalterm import EvalContext, eval_cond, eval_term
from repro.sgl.interp import Interpreter, reference_tick
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
        "i": float("inf"),
        "q": float("nan"),
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


class CountingEvaluator(NaiveEvaluator):
    """The naive evaluator, counting the calls it answers."""

    calls = 0

    def evaluate(self, function, args, ctx):
        self.calls += 1
        return super().evaluate(function, args, ctx)


def lower_stages(node, names, registry, *, is_cond):
    """Emit *node* the way a script's ``let`` (a term) or ``if`` (a
    condition) is emitted: the stage storing its value into a new slot
    of frames ``[rt, *names, slots…]``, after one call-site stage per
    hoisted aggregate call.  Returns ``run(frames) -> values``, which
    sets ``run.hoisted_raised`` when a call-site stage raised."""
    script = ast.Script({"main": ast.FunctionDef("main", ("u",), ast.Skip())})
    lowering = _ScriptLowering(script, registry, None)
    lowering.next_slot = 1 + len(names)
    body, stages = lowering.staged(frame_scope(names, registry))
    value = (body.cond if is_cond else body.term)(node)
    slot = lowering.new_slot()
    stages.append(lowering.module.stage(body, f"f[{slot}] = {value}"))
    ns = lowering.module.build()

    def run(frames):
        frames = [[*f, *[None] * (slot + 1 - len(f))] for f in frames]
        *hoisted, last = stages
        run.hoisted_raised = True
        for stage in hoisted:
            ns[stage](frames)
        run.hoisted_raised = False
        ns[last](frames)
        return [f[slot] for f in frames]

    return run


def check_stages(node, env, registry, bindings, *, is_cond):
    """*node* as a script stage, over a batch of frames -- one per unit
    (the awkward one and some of *env*'s), *bindings* otherwise -- and
    over each frame alone, against the oracle frame by frame: values,
    exception classes and aggregate call counts."""
    names = list(bindings)
    try:
        run = lower_stages(node, names, registry, is_cond=is_cond)
    except SglNameError:
        return  # refused statically: check_term_or_cond asserts why
    evaluate = eval_cond if is_cond else eval_term
    units = [bindings["u"], *env.rows[:5]]

    def frames_for(batch, agg_eval):
        return [
            [make_ctx(env, registry, {}, unit, agg_eval),
             *{**bindings, "u": unit}.values()]
            for unit in batch
        ]

    def plain(result):
        if is_cond and result[0] == "ok":
            return ("ok", bool(result[1]))
        return result

    refs = []
    for unit in units:
        counter = CountingEvaluator()
        ctx = make_ctx(env, registry, {**bindings, "u": unit}, unit, counter)
        refs.append((plain(outcome(lambda: evaluate(node, ctx))), counter.calls))
    for unit, (ref, calls) in zip(units, refs):
        counter = CountingEvaluator()
        got = plain(outcome(lambda: run(frames_for([unit], counter))[0]))
        if ref[0] == "ok" or not run.hoisted_raised:
            assert_same_outcome(got, ref, f"{node} (batch of one)")
        else:  # a hoisted call site raised ahead of the oracle's error
            assert got[0] == "raised", f"{node}: {got!r} != {ref!r}"
        if ref[0] == "ok":
            assert counter.calls == calls, f"{node}: aggregate calls"
    counter = CountingEvaluator()
    got = outcome(lambda: run(frames_for(units, counter)))
    if all(ref[0] == "ok" for ref, _ in refs):
        assert got[0] == "ok", f"{node} (batch): {got!r}"
        for value, (ref, _) in zip(got[1], refs):
            assert_same_outcome(plain(("ok", value)), ref, f"{node} (batch)")
        assert counter.calls == sum(calls for _, calls in refs), str(node)
    else:
        assert got[0] == "raised", f"{node} (batch): {got!r}"


# ---------------------------------------------------------------------------
# Generated terms and conditions
# ---------------------------------------------------------------------------

NAMES = [
    "u", "w", "x", "z", "h", "n", "s", "v", "r", "k", "i", "q", "_BASE_AC", "zz"
]
ATTRS = ["posx", "health", "damage", "armor", "key", "x", "y", "nope"]
MATH = [
    "abs", "sqrt", "floor", "ceil", "sign", "step", "nonsql_max", "norm",
    "vec", "log", "exp", "pow",
]

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
        check_stages(term, env, registry, bindings_for(schema), is_cond=False)

    @GENERATED
    @given(cond=conds)
    def test_conditions(self, cond, schema, registry):
        env = make_env(schema, n=8, grid=12)
        check_term_or_cond(
            cond, env, registry, bindings_for(schema), is_cond=True
        )
        check_stages(cond, env, registry, bindings_for(schema), is_cond=True)

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


def run_compiled(script, env, registry, rng, *, indexed, batch):
    """The effects of one tick of *script*: every unit in one batch, or
    each unit as a batch of one."""
    runner = DecisionRunner(script, registry, indexed=indexed)
    agg_eval = IndexedEvaluator(registry) if indexed else NaiveEvaluator()
    if indexed:
        agg_eval.begin_tick(env)
    rows: list = []
    aoe: list = []
    by_key = env.by_key() if indexed else None

    rt = EvalContext(env=env, registry=registry, agg_eval=agg_eval, rng=rng)
    if batch:
        runner.run_batch(env.rows, rt, by_key, rows, aoe)
    else:
        for unit in env.rows:
            runner.run_unit(unit, rt, by_key, rows, aoe)
    return combine_effects(env, registry, rows, aoe)


def check_script(script, env, registry, *, indexed):
    rng = TickRandom(11, tick=1)
    want = outcome(lambda: reference_tick(env, lambda u: script, registry, rng))
    for batch in (False, True):
        got = outcome(
            lambda: run_compiled(
                script, env, registry, rng, indexed=indexed, batch=batch
            )
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


class TestBatches:
    """What running a script set-at-a-time must not change."""

    @pytest.mark.parametrize(
        "cond, reaches",
        [
            ("u.cooldown = 0 and CountEnemiesInRange(u, u.range) > 0",
             lambda u: u["cooldown"] == 0),
            ("u.cooldown = 0 or CountEnemiesInRange(u, u.range) > 0",
             lambda u: u["cooldown"] != 0),
        ],
        ids=["and", "or"],
    )
    def test_a_short_circuit_call_runs_once_per_frame_reaching_it(
        self, cond, reaches, schema, registry
    ):
        script = parse_script(
            f"main(u) {{ if {cond} then perform UseWeapon(u) "
            "else perform MoveInDirection(u, 1, 0) }"
        )
        env = make_env(schema, n=30, grid=12, seed=7)
        for row in env.rows[::3]:
            row["cooldown"] = 1
        rng = TickRandom(3, tick=1)
        probes = []
        for run in ("oracle", "batch", "units"):
            agg_eval = IndexedEvaluator(registry)
            agg_eval.begin_tick(env)
            if run == "oracle":
                interp = Interpreter(script, registry, agg_eval)
                for unit in env.rows:
                    interp.run_unit(unit, env, rng)
            else:
                rt = EvalContext(env=env, registry=registry,
                                 agg_eval=agg_eval, rng=rng)
                runner = DecisionRunner(script, registry)
                units = [env.rows] if run == "batch" else [[u] for u in env.rows]
                for batch in units:
                    runner.run_batch(batch, rt, env.by_key(), [], [])
            probes.append(agg_eval.stats["probe_divisible"])
        assert probes == [sum(map(reaches, env.rows))] * 3

    def test_a_failing_unit_raises_the_oracles_error_at_that_unit(
        self, schema, registry
    ):
        script = parse_script(
            "main(u) { perform MoveInDirection(u, 1, 0); "
            "perform MoveInDirection(u, 6 / (u.key - 3), u.posx) }"
        )
        env = make_env(schema, n=8, seed=1)
        rng = TickRandom(1, tick=1)
        interp = Interpreter(script, registry)
        with pytest.raises(SglRuntimeError) as want:
            interp.run_unit(env.rows[3], env, rng)
        rows: list = []
        rt = EvalContext(env=env, registry=registry,
                         agg_eval=NaiveEvaluator(), rng=rng)
        with pytest.raises(type(want.value), match=str(want.value)):
            DecisionRunner(script, registry).run_batch(
                env.rows, rt, env.by_key(), rows, []
            )
        # units 0-2 ran alone and kept their effects; 3 raised; none after
        assert {row["key"] for row in rows} == {0, 1, 2}
        oracle = [env] + [interp.run_unit(u, env, rng) for u in env.rows[:3]]
        assert combine_effects(env, registry, rows) == combine_all(
            oracle, env.schema
        )


class TestOverflow:
    """Results out of float range are SGL runtime errors, in the emitted
    code as in the oracle."""

    @pytest.mark.parametrize(
        "src",
        ["exp(1000.0)", "pow(10.0, 400)", "floor(i)", "ceil(0 - i)",
         "Random(i)", "Random(u, q)", "Random(w, 0 - i)"],
    )
    def test_matches_the_oracle(self, src, schema, registry):
        env = make_env(schema, n=4)
        bindings = bindings_for(schema)
        term = parse_term(src)
        with pytest.raises(SglRuntimeError):
            eval_term(term, make_ctx(env, registry, bindings, bindings["u"]))
        frame = [make_ctx(env, registry, {}, bindings["u"]), *bindings.values()]
        with pytest.raises(SglRuntimeError):
            compile_term(term, frame_scope(list(bindings), registry))(frame)
        check_term_or_cond(term, env, registry, bindings, is_cond=False)
        check_stages(term, env, registry, bindings, is_cond=False)


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
    return tuple(out)


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
        """Category and bound columns over a batch of probe frames and
        over each frame alone, against the oracle per frame."""
        env = make_env(schema, n=12, grid=10, seed=3)
        for fn, shape in self.shapes(registry):
            probe = Probe(shape, fn.params, registry)
            frames, bounds, cats = [], [], []
            for unit in env.rows:
                args = args_for(fn, unit)
                ctx = make_ctx(env, registry, dict(zip(fn.params, args)), unit)
                f = [make_ctx(env, registry, {}, unit), *args, None]
                frames.append(f)
                bounds.append(reference_bounds(shape, ctx))
                cats.append((
                    tuple(eval_term(c.value_term, ctx) for c in shape.eq_cats),
                    tuple(eval_term(c.value_term, ctx) for c in shape.neq_cats),
                ))
                assert probe.bounds([f]) == bounds[-1:], fn.name
                assert probe.cats([f]) == cats[-1:], fn.name
                guard = probe.guard is None or bool(probe.guard(f))
                assert guard == all(eval_cond(c, ctx) for c in shape.u_only)
            assert probe.bounds(frames) == bounds, fn.name
            assert probe.cats(frames) == cats, fn.name

    @pytest.mark.parametrize("radius", [None, float("nan"), -1, "x"])
    def test_empty_and_failing_bounds_match_a_batch_of_one(
        self, radius, schema, registry
    ):
        fn = registry.aggregates["CountEnemiesInRange"]
        probe = Probe(classify_aggregate(fn.spec), fn.params, registry)
        env = make_env(schema, n=6, seed=2)
        frames = [
            [make_ctx(env, registry, {}, u), u, radius if u["key"] == 3 else 2, None]
            for u in env.rows
        ]
        alone = [outcome(lambda: probe.bounds([f])) for f in frames]
        if all(result[0] == "ok" for result in alone):
            assert probe.bounds(frames) == [result[1][0] for result in alone]
            assert alone[3][1] == [None]  # an empty interval: no rows
        else:
            assert [result[0] for result in alone].count("raised") == 1
            assert outcome(lambda: probe.bounds(frames)) == alone[3]

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

    @pytest.mark.parametrize("bound", ["5", True, 10**400, 4])
    def test_aoe_with_a_non_real_bound_matches_the_scan(
        self, bound, schema, registry
    ):
        """A bound that is not a real number is compared by the scan,
        as the naive engine compares it, not turned into a float."""
        extended = registry.copy()
        extended.register_sql(HEAL_BOX_SQL)
        fn = extended.actions["HealBox"]
        assert classify_action(fn.spec).kind == "aoe"
        action = compile_action(fn, extended, indexed=True)
        env = make_env(schema, n=8, grid=10, seed=6)
        by_key = env.by_key()
        for unit in env.rows:
            args = [unit, bound, 1000]
            rt = EvalContext(env=env, registry=extended,
                             agg_eval=NaiveEvaluator(), rng=None, unit=unit)

            def compiled():
                rows, aoe = [], []
                action(rt, args, by_key, rows, aoe)
                return combine_effects(env, extended, rows, aoe)

            want = outcome(lambda: combine_effects(
                env, extended,
                apply_action_scan(fn.spec, dict(zip(fn.params, args)), rt),
            ))
            assert outcome(compiled) == want


#: An area action whose box comes straight from its arguments.
HEAL_BOX_SQL = """
function HealBox(u, lo, hi) returns
SELECT e.key, nonsql_max(e.inaura, _HEAL_AURA) AS inaura
FROM E e
WHERE u.player = e.player
  AND e.posx >= lo AND e.posx <= hi AND e.posy >= lo AND e.posy <= hi;
"""


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
