"""Differential tests: set-at-a-time execution ≡ per-unit execution.

:meth:`DecisionRunner.run_batch` runs a script over a batch of units,
evaluating each aggregate call site once per batch; ``run_unit`` outside
a batch (a batch of one) is per-unit execution, itself pinned to the
tree-walking interpreter by ``test_compile.py``.  Every check runs the
same units both ways, split into batches of every size from one to all
of them, and demands the same effect rows and AoE records as *ordered*
lists -- and, when a unit raises, the same exception class after the
same effects, i.e. raised by the same unit.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.decision import DecisionRunner
from repro.engine.evaluator import IndexedEvaluator, NaiveEvaluator
from repro.engine.rng import TickRandom
from repro.game import scripts as game_scripts
from repro.sgl import ast
from repro.sgl.errors import SglNameError
from repro.sgl.evalterm import EvalContext
from repro.sgl.parser import parse_script
from tests.conftest import make_env
from tests.engine.test_compile import HELPER, performs, small_terms


def per_unit(runner, units, rt, by_key):
    rows, aoe = [], []
    for unit in units:
        try:
            runner.run_unit(unit, rt, by_key, rows, aoe)
        except Exception as exc:  # noqa: BLE001 - the class is compared
            return rows, aoe, type(exc)
    return rows, aoe, None


def in_batches(runner, units, rt, by_key, size):
    rows, aoe = [], []
    for start in range(0, len(units), size):
        try:
            runner.run_batch(units[start:start + size], rt, by_key, rows, aoe)
        except Exception as exc:  # noqa: BLE001 - the class is compared
            return rows, aoe, type(exc)
    return rows, aoe, None


def check_batches(script, env, registry, *, indexed):
    runner = DecisionRunner(script, registry, indexed=indexed)
    agg_eval = IndexedEvaluator(registry) if indexed else NaiveEvaluator()
    if indexed:
        agg_eval.begin_tick(env)
    rt = EvalContext(
        env=env, registry=registry, agg_eval=agg_eval, rng=TickRandom(11, tick=1)
    )
    by_key = env.by_key() if indexed else None
    units = env.rows
    want = per_unit(runner, units, rt, by_key)
    for size in range(1, len(units) + 1):
        got = in_batches(runner, units, rt, by_key, size)
        assert got == want, f"batches of {size}"
    return want


def awkward(env):
    """NULLs and zeros where scripts divide, compare and index."""
    for row in env.rows[::4]:
        row["health"] = None
    for row in env.rows[1::5]:
        row["armor"] = 0
    return env


BATTLE_SCRIPTS = {
    "figure3": game_scripts.FIGURE_3_SCRIPT,
    "knight": game_scripts.KNIGHT_SCRIPT,
    "archer": game_scripts.ARCHER_SCRIPT,
    "healer": game_scripts.HEALER_SCRIPT,
}


@pytest.mark.parametrize("indexed", [False, True], ids=["scan", "indexed"])
@pytest.mark.parametrize("name", sorted(BATTLE_SCRIPTS))
def test_battle_scripts(name, indexed, schema, registry):
    script = parse_script(BATTLE_SCRIPTS[name])
    env = make_env(schema, n=24, grid=12, seed=5)
    for row in env.rows[::3]:
        row["health"] -= 4  # wounded: healers act
    rows, aoe, raised = check_batches(script, env, registry, indexed=indexed)
    assert raised is None and (rows or aoe)


FIXTURES = {
    # an aggregate call in the short-circuit operand only
    "short_circuit": (
        "main(u) { if u.player = 0 and CountEnemiesInRange(u, 5) > 0 then "
        "perform MoveInDirection(u, 1, 0) else perform UseWeapon(u) }"
    ),
    # a call in the strict operand, a call feeding another call
    "nested_calls": (
        "main(u) { (let n = CountFriendliesNearPoint(u, "
        "CentroidOfEnemies(u, 6).x, u.posy, CountEnemiesInRange(u, 3))) "
        "if n > 1 or WeakestEnemyInRange(u, 4).key = 0 then "
        "perform MoveInDirection(u, n, Random(3) % 4) }"
    ),
    # branch splits into defined functions, recursion, Random(i)
    "recursion": (
        "main(u) { if Random(1) % 2 = 0 then perform Down(u, 2) "
        "else perform Down(u, 1) } "
        "Down(w, n) { if n > 0 then { (let t = NearestEnemy(w)) "
        "perform FireAt(w, t.key); perform Down(w, n - 1) } }"
    ),
    # an error raised by some units only: the batch replays per unit
    "division_by_zero": (
        "main(u) { (let c = CountEnemiesInRange(u, 4)) "
        "perform MoveInDirection(u, c / u.armor, 0) }"
    ),
    "null_compare": (
        "main(u) { if u.health > CountEnemiesInRange(u, 3) then "
        "perform Heal(u) }"
    ),
}


@pytest.mark.parametrize("indexed", [False, True], ids=["scan", "indexed"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_scripts(name, indexed, schema, registry):
    script = parse_script(FIXTURES[name])
    env = awkward(make_env(schema, n=20, grid=10, seed=3))
    check_batches(script, env, registry, indexed=indexed)


def test_the_same_unit_raises(schema, registry):
    """A unit in the middle of a batch raises: the units before it keep
    their effects, the ones after it never run -- as per unit."""
    script = parse_script(FIXTURES["division_by_zero"])
    env = make_env(schema, n=10, grid=10, seed=3)
    env.rows[6]["armor"] = 0
    rows, _, raised = check_batches(script, env, registry, indexed=True)
    assert raised is not None
    assert [row["key"] for row in rows] == [row["key"] for row in env.rows[:6]]


# -- generated scripts ---------------------------------------------------------

U = ast.Name("u")
call_terms = st.sampled_from(
    [
        ast.Call("CountEnemiesInRange", (U, ast.Num(3))),
        ast.FieldAccess(ast.Call("NearestEnemy", (U,)), "key"),
        ast.FieldAccess(
            ast.Call("WeakestEnemyInRange", (U, ast.FieldAccess(U, "sight"))),
            "health",
        ),
        ast.FieldAccess(ast.Call("FriendlySpread", (U,)), "sx"),
        ast.BinOp("%", ast.Call("Random", (ast.Num(1),)), ast.Num(3)),
    ]
)
batch_terms = st.one_of(small_terms, call_terms)
atoms = st.builds(
    ast.Compare, st.sampled_from(["=", "<", ">="]), batch_terms, batch_terms
)
batch_conds = st.recursive(
    atoms,
    lambda c: st.one_of(
        st.builds(ast.And, c, c), st.builds(ast.Or, c, c), st.builds(ast.Not, c)
    ),
    max_leaves=4,
)
batch_actions = st.recursive(
    st.just(ast.Skip()) | performs,
    lambda children: st.one_of(
        st.builds(ast.Let, st.sampled_from(["a", "b"]), batch_terms, children),
        st.builds(ast.Seq, children, children),
        st.builds(ast.If, batch_conds, children, st.none() | children),
    ),
    max_leaves=6,
)


class TestGeneratedScripts:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(body=batch_actions, indexed=st.booleans())
    def test_batches_match_per_unit(self, body, indexed, schema, registry):
        script = ast.Script(
            {"main": ast.FunctionDef("main", ("u",), body), "Helper": HELPER}
        )
        try:
            DecisionRunner(script, registry)
        except SglNameError:
            return  # unbound ``zz`` / out-of-scope lets: refused statically
        env = awkward(make_env(schema, n=7, grid=6, seed=2))
        check_batches(script, env, registry, indexed=indexed)
