"""⊕ grouped on ``K`` equals ⊕ grouped on the const attributes.

``combine_all(..., by_key=True)`` is the engine's ⊕: it groups on the
key, which is only sound where ``K`` determines the const attributes.
These tests hold it to the reference grouping -- as ordered row lists,
value types included -- on tables where that holds, including NaN,
signed zeros, infinities and ``0``/``0.0`` ties, and check that both
groupings fold each tag exactly as builtin ``max``/``min``/``+`` do.
The reference itself stays pinned by ``test_combine.py``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.combine import combine_all
from repro.env.schema import Attribute, AttributeType, Schema
from repro.env.table import EnvironmentTable

C, S, MX, MN = (
    AttributeType.CONST, AttributeType.SUM, AttributeType.MAX, AttributeType.MIN
)
SCHEMA = Schema(
    [
        Attribute("key", C),
        Attribute("pos", C),
        Attribute("damage", S),
        Attribute("aura", MX, default=0),
        Attribute("team", C),
        Attribute("freeze", MN),
    ]
)


def typed(table):
    """The rows in order, each value with its type; ``repr`` tells NaN,
    ``-0.0`` and ``0.0`` apart and makes NaN equal to itself."""
    return [
        [(name, type(value).__name__, repr(value)) for name, value in row.items()]
        for row in table.rows
    ]


def reference_fold(tables, schema):
    """⊕ as Eq. 2 states it, with the builtin aggregates."""
    funcs = {S: lambda a, b: a + b, MX: max, MN: min}
    groups = {}
    for table in tables:
        for row in table:
            sig = tuple(row[n] for n in schema.const_names)
            acc = groups.get(sig)
            if acc is None:
                groups[sig] = dict(row)
                continue
            for name in schema.effect_names:
                acc[name] = funcs[schema.tag_of(name)](acc[name], row[name])
    out = EnvironmentTable(schema)
    out.rows.extend(groups.values())
    return out


def make_table(rows):
    table = EnvironmentTable(SCHEMA)
    table.rows.extend(rows)
    return table


values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
consts = st.sampled_from([0, 0.0, -0.0, 1.5, math.nan, math.inf, "a"])
effects = st.fixed_dictionaries(
    {"damage": st.integers(-5, 5) | st.sampled_from([0.0, -0.0, 0.5]),
     "aura": values, "freeze": values}
)


@st.composite
def keyed_tables(draw):
    """``E`` (unique keys) plus effect tables whose rows carry their
    key's const values -- the same objects, as copies of ``E`` rows do
    -- so ``K`` determines the consts across every table."""
    universe = draw(st.integers(1, 6))
    units = {
        key: {"key": key, "pos": draw(consts), "team": draw(consts)}
        for key in range(universe)
    }
    in_env = draw(st.lists(st.sampled_from(range(universe)), unique=True))
    env = make_table([{**units[k], **draw(effects)} for k in in_env])
    tables = [env]
    for _ in range(draw(st.integers(0, 3))):
        keys = draw(st.lists(st.sampled_from(range(universe)), max_size=8))
        tables.append(make_table([{**units[k], **draw(effects)} for k in keys]))
    return tables


@settings(max_examples=300, deadline=None)
@given(keyed_tables())
def test_by_key_equals_const_grouping_where_k_determines_consts(tables):
    want = typed(reference_fold(tables, SCHEMA))
    assert typed(combine_all(tables, SCHEMA)) == want
    assert typed(combine_all(tables, SCHEMA, by_key=True)) == want


free_rows = st.lists(
    st.builds(
        lambda key, pos, team, fx: {"key": key, "pos": pos, "team": team, **fx},
        st.integers(0, 3), consts, st.sampled_from([0, 1]), effects,
    ),
    max_size=10,
).map(make_table)


@settings(max_examples=200, deadline=None)
@given(st.lists(free_rows, min_size=1, max_size=4))
def test_const_grouping_folds_as_the_builtins(tables):
    # tables that break K -> const: only the const grouping is defined
    assert typed(combine_all(tables, SCHEMA)) == typed(
        reference_fold(tables, SCHEMA)
    )


def row(key, pos=0, damage=0, aura=0, freeze=math.inf, team=0):
    return {"key": key, "pos": pos, "damage": damage, "aura": aura,
            "team": team, "freeze": freeze}


def test_ties_keep_the_accumulators_value_and_type():
    tables = [
        make_table([row(1, aura=0, freeze=0.0)]),
        make_table([row(1, aura=0.0, freeze=0), row(1, aura=-0.0, freeze=-0.0)]),
    ]
    for by_key in (False, True):
        (out,) = combine_all(tables, SCHEMA, by_key=by_key).rows
        assert (repr(out["aura"]), repr(out["freeze"])) == ("0", "0.0")


def test_nan_behaves_as_builtin_max_and_min():
    nan = math.nan
    tables = [
        make_table([row(1, aura=nan, freeze=2), row(2, aura=1, freeze=nan)]),
        make_table([row(1, aura=5, freeze=nan), row(2, aura=nan, freeze=1)]),
    ]
    want = typed(reference_fold(tables, SCHEMA))
    assert typed(combine_all(tables, SCHEMA, by_key=True)) == want
    by_key = {r["key"]: r for r in combine_all(tables, SCHEMA, by_key=True)}
    assert math.isnan(by_key[1]["aura"]) and by_key[1]["freeze"] == 2
    assert by_key[2]["aura"] == 1 and math.isnan(by_key[2]["freeze"])


def test_a_repeated_key_in_the_first_table_falls_back():
    # E holds key 1 twice with different consts: K is no key, so
    # grouping on it would merge two units
    env = make_table([row(1, pos=0), row(1, pos=5), row(2)])
    effects_table = make_table([row(1, pos=5, damage=3), row(2, damage=1)])
    want = typed(reference_fold([env, effects_table], SCHEMA))
    got = combine_all([env, effects_table], SCHEMA, by_key=True)
    assert typed(got) == want
    assert [(r["key"], r["pos"], r["damage"]) for r in got] == [
        (1, 0, 0), (1, 5, 3), (2, 0, 1)
    ]


def test_combined_rows_are_fresh_copies():
    env = make_table([row(1), row(2)])
    effects_table = make_table([row(1, damage=4)])
    for by_key in (False, True):
        out = combine_all([env, effects_table], SCHEMA, by_key=by_key)
        inputs = {id(r) for t in (env, effects_table) for r in t.rows}
        assert not inputs & {id(r) for r in out.rows}
