"""Segment-tree interval index + divisible aggregate accumulators."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.divisible import Moments, MomentVector, is_divisible
from repro.indexes.interval_agg import IntervalAggregateIndex
from repro.indexes.sweepline import _MaxSentinel


class TestIntervalAggregateIndex:
    def test_min_updates_percolate(self):
        tree = IntervalAggregateIndex(8, "min")
        tree.set(3, 5.0)
        tree.set(6, 2.0)
        assert tree.query(0, 7) == 2.0
        assert tree.query(0, 4) == 5.0

    def test_clear_restores_neutral(self):
        tree = IntervalAggregateIndex(4, "min")
        tree.set(1, 3.0)
        tree.clear(1)
        assert tree.query(0, 3) == float("inf")

    def test_sum_kind(self):
        tree = IntervalAggregateIndex(5, "sum")
        for i in range(5):
            tree.set(i, float(i))
        assert tree.query(1, 3) == 6.0
        assert tree.total() == 10.0

    def test_max_kind(self):
        tree = IntervalAggregateIndex(4, "max")
        tree.set(0, -5.0)
        assert tree.query(0, 3) == -5.0
        assert tree.query(1, 3) == float("-inf")

    def test_empty_range(self):
        tree = IntervalAggregateIndex(4, "min")
        assert tree.query(3, 1) == float("inf")

    def test_out_of_bounds_clamped(self):
        tree = IntervalAggregateIndex(4, "sum")
        tree.set(0, 1.0)
        assert tree.query(-10, 10) == 1.0

    def test_set_out_of_range_raises(self):
        tree = IntervalAggregateIndex(4, "sum")
        with pytest.raises(IndexError):
            tree.set(4, 1.0)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            IntervalAggregateIndex(4, "avg")

    def test_custom_neutral_tuples(self):
        neutral = (float("inf"), None)
        tree = IntervalAggregateIndex(4, "min", neutral=neutral)
        assert tree.query(0, 3) == neutral
        tree.set(2, (3.0, "unit"))
        assert tree.query(0, 3) == (3.0, "unit")

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 15), st.floats(-100, 100)),
                 max_size=40),
        st.integers(0, 15), st.integers(0, 15),
    )
    def test_matches_bruteforce(self, updates, a, b):
        lo, hi = min(a, b), max(a, b)
        tree = IntervalAggregateIndex(16, "min")
        slots = [float("inf")] * 16
        for slot, value in updates:
            tree.set(slot, value)
            slots[slot] = value
        assert tree.query(lo, hi) == min(slots[lo : hi + 1])

    # -- early-stopped percolation gives the answers of the full walk ------------

    #: a small pool, so ties, shared float objects and 0.0 / -0.0 are common
    pool = st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5, -3.0, 7.0])
    ops = st.lists(
        st.one_of(
            st.tuples(st.just("set"), st.integers(0, 12), pool),
            st.tuples(st.just("clear"), st.integers(0, 12), st.none()),
            st.tuples(st.just("query"), st.integers(-2, 14), st.integers(-2, 14)),
        ),
        max_size=60,
    )

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["min", "max", "sum", "argmin"]), ops)
    def test_set_clear_query_sequences_match_a_list_scan(self, kind, sequence):
        if kind == "argmin":  # (value, id) leaves under the sweep's sentinel
            neutral = (float("inf"), _MaxSentinel())
            make = lambda: IntervalAggregateIndex(13, "min", neutral=neutral)
            leaf = lambda slot, value: (value, slot % 3)
        else:
            make = lambda: IntervalAggregateIndex(13, kind)
            leaf = lambda slot, value: value
        tree, full = make(), _FullPercolation(make())
        slots = [tree.neutral] * 13
        for what, a, b in sequence:
            if what == "query":
                window = slots[max(a, 0) : max(b + 1, 0)] if a <= b else []
                expected = functools.reduce(tree.op, window, tree.neutral)
                assert tree.query(a, b) == expected
                continue
            if what == "set":
                slots[a] = value = leaf(a, b)
                tree.set(a, value)
                full.set(a, value)
            else:
                slots[a] = tree.neutral
                tree.clear(a)
                full.set(a, tree.neutral)
            # every node, not just the answers: repr tells 0.0 from -0.0
            assert repr(tree._tree) == repr(full.tree._tree)
        assert tree.total() == functools.reduce(tree.op, slots, tree.neutral)

    def test_clear_of_a_neutral_slot_writes_nothing(self):
        tree = IntervalAggregateIndex(8, "min")
        tree.set(2, 4.0)
        before = list(tree._tree)
        tree.clear(5)
        assert all(a is b for a, b in zip(tree._tree, before))
        with pytest.raises(IndexError):
            tree.clear(8)


class _FullPercolation:
    """The always-walk-to-the-root ``set`` the index used to have."""

    def __init__(self, tree):
        self.tree = tree

    def set(self, slot, value):
        tree, i = self.tree._tree, self.tree._base + slot
        tree[i] = value
        i //= 2
        while i:
            tree[i] = self.tree.op(tree[2 * i], tree[2 * i + 1])
            i //= 2


class TestMoments:
    def test_add_and_finalize(self):
        m = Moments()
        for v in (1, 2, 3):
            m.add(v)
        assert m.finalize("count") == 3
        assert m.finalize("sum") == 6
        assert m.finalize("avg") == 2
        assert m.finalize("var") == pytest.approx(2 / 3)
        assert m.finalize("stddev") == pytest.approx(math.sqrt(2 / 3))

    def test_empty_finalizers(self):
        m = Moments()
        assert m.finalize("count") == 0
        assert m.finalize("sum") == 0
        assert m.finalize("avg") is None
        assert m.finalize("stddev") is None

    def test_unknown_aggregate(self):
        with pytest.raises(ValueError):
            Moments().finalize("median")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-50, 50)), st.lists(st.integers(-50, 50)))
    def test_merge_subtract_group_laws(self, xs, ys):
        # Definition 5.1: agg(A \ B) = f(agg(A), agg(B)) for B ⊆ A
        a, b = Moments(), Moments()
        for v in xs:
            a.add(v)
        for v in ys:
            b.add(v)
        merged = a.merge(b)
        recovered = merged.subtract(b)
        assert recovered.count == a.count
        assert recovered.total == pytest.approx(a.total)
        assert recovered.total_sq == pytest.approx(a.total_sq)

    def test_divisibility_predicate(self):
        for agg in ("count", "sum", "avg", "var", "stddev"):
            assert is_divisible(agg)
        for agg in ("min", "max", "argmin", "argmax"):
            assert not is_divisible(agg)  # the paper's counterexamples


class TestMomentVector:
    def test_lockstep_measures(self):
        mv = MomentVector(2)
        mv.add((1, 10))
        mv.add((3, 30))
        assert mv.moments[0].avg() == 2
        assert mv.moments[1].avg() == 20

    def test_merge_and_subtract(self):
        a, b = MomentVector(1), MomentVector(1)
        a.add((5,))
        b.add((7,))
        merged = a.merge(b)
        assert merged.moments[0].count == 2
        back = merged.subtract(b)
        assert back.moments[0].total == 5.0

    def test_copy_is_independent(self):
        a = MomentVector(1)
        a.add((1,))
        b = a.copy()
        b.add((9,))
        assert a.moments[0].count == 1
