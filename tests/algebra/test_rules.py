"""Algebraic laws of Figure 7 as property tests.

Rule (10): for keyed environment tables with equal key sets,
``R1⊕ ⊕ R2⊕ = π(R1⊕ ⊲⊳K R2⊕)`` -- combining keyed tables is a key join
that merges effect columns pairwise.  We verify the law extensionally:
the join-based implementation equals the ⊕ implementation on random
keyed tables.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.combine import combine, combine_pair
from repro.env.schema import Attribute, AttributeType, Schema
from repro.env.table import EnvironmentTable

SCHEMA = Schema(
    [
        Attribute("key", AttributeType.CONST),
        Attribute("damage", AttributeType.SUM),
        Attribute("aura", AttributeType.MAX, default=0),
    ]
)

_COMBINE = {
    "damage": lambda a, b: a + b,
    "aura": max,
}


def keyed_table(values):
    """One row per key: a keyed environment table (R = R⊕)."""
    table = EnvironmentTable(SCHEMA)
    for key, (damage, aura) in enumerate(values):
        table.rows.append({"key": key, "damage": damage, "aura": aura})
    return table


def join_combine(left, right):
    """Rule (10): ⊕ of keyed tables as a key join merging effects."""
    right_by_key = right.by_key()
    out = EnvironmentTable(SCHEMA)
    for row in left:
        other = right_by_key[row["key"]]
        merged = {"key": row["key"]}
        for attr, fn in _COMBINE.items():
            merged[attr] = fn(row[attr], other[attr])
        out.rows.append(merged)
    return out


values_strategy = st.lists(
    st.tuples(st.integers(-10, 10), st.integers(0, 10)),
    min_size=0, max_size=15,
)


@settings(max_examples=150, deadline=None)
@given(values_strategy, values_strategy)
def test_rule_10_oplus_as_key_join(left_vals, right_vals):
    # align key sets: rule (10) requires πK(R1) = πK(R2)
    size = min(len(left_vals), len(right_vals))
    left = keyed_table(left_vals[:size])
    right = keyed_table(right_vals[:size])
    assert combine_pair(left, right) == join_combine(left, right)


@settings(max_examples=100, deadline=None)
@given(values_strategy)
def test_keyed_table_is_oplus_fixpoint(values):
    # "when K is a key for R ... R = ⊕R"
    table = keyed_table(values)
    assert combine(table) == table


@settings(max_examples=100, deadline=None)
@given(values_strategy, values_strategy, values_strategy)
def test_rule_10_composes_with_associativity(a_vals, b_vals, c_vals):
    size = min(len(a_vals), len(b_vals), len(c_vals))
    a = keyed_table(a_vals[:size])
    b = keyed_table(b_vals[:size])
    c = keyed_table(c_vals[:size])
    via_oplus = combine_pair(combine_pair(a, b), c)
    via_join = join_combine(join_combine(a, b), c)
    assert via_oplus == via_join

