"""Figure-8 divisible-aggregate trees vs brute-force moments."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.agg_range_tree import AggRangeTree2D, PrefixAggregate1D

coord = st.integers(-30, 30)
value = st.integers(-20, 20)
entries = st.lists(st.tuples(coord, coord, value), max_size=50)
interval = st.tuples(coord, coord).map(lambda ab: (min(ab), max(ab)))


def brute_moments(rows, xlo, xhi, ylo, yhi):
    picked = [v for x, y, v in rows if xlo <= x <= xhi and ylo <= y <= yhi]
    return (
        len(picked),
        float(sum(picked)),
        float(sum(v * v for v in picked)),
    )


class TestAggRangeTree2D:
    @pytest.mark.parametrize("cascade", [True, False])
    def test_simple_rectangle(self, cascade):
        rows = [(0, 0, 1), (1, 1, 2), (2, 2, 3), (10, 10, 4)]
        tree = AggRangeTree2D.from_rows(
            [(x, y) for x, y, _ in rows], [(v,) for _, _, v in rows],
            cascade=cascade,
        )
        moments, = tree.query(0, 2, 0, 2)
        assert moments.count == 3
        assert moments.total == 6.0
        assert moments.total_sq == 14.0

    @settings(max_examples=150, deadline=None)
    @given(entries, interval, interval, st.booleans())
    def test_matches_bruteforce(self, rows, bx, by, cascade):
        tree = AggRangeTree2D.from_rows(
            [(x, y) for x, y, _ in rows], [(v,) for _, _, v in rows],
            cascade=cascade,
        )
        moments, = tree.query(bx[0], bx[1], by[0], by[1])
        count, total, total_sq = brute_moments(rows, bx[0], bx[1], by[0], by[1])
        assert moments.count == count
        assert moments.total == pytest.approx(total)
        assert moments.total_sq == pytest.approx(total_sq)

    @settings(max_examples=80, deadline=None)
    @given(entries, interval, interval)
    def test_cascade_equals_no_cascade(self, rows, bx, by):
        points = [(x, y) for x, y, _ in rows]
        values = [(v,) for _, _, v in rows]
        a, = AggRangeTree2D.from_rows(points, values, cascade=True).query(
            bx[0], bx[1], by[0], by[1]
        )
        b, = AggRangeTree2D.from_rows(points, values, cascade=False).query(
            bx[0], bx[1], by[0], by[1]
        )
        assert (a.count, a.total, a.total_sq) == (b.count, b.total, b.total_sq)

    def test_count_only_tree(self):
        tree = AggRangeTree2D.from_rows([(0, 0), (1, 1), (5, 5)])
        assert tree.count(0, 1, 0, 1) == 2

    def test_multiple_measures_share_tree(self):
        # a centroid: avg x and avg y from one structure
        points = [(0, 0), (2, 4), (4, 8)]
        tree = AggRangeTree2D.from_rows(points, [(x, y) for x, y in points])
        mx, my = tree.query(0, 4, 0, 8)
        assert mx.avg() == pytest.approx(2.0)
        assert my.avg() == pytest.approx(4.0)

    def test_stddev_finalizer(self):
        tree = AggRangeTree2D.from_rows([(0, 0), (1, 0)], [(0,), (2,)])
        m, = tree.query(-1, 2, -1, 1)
        assert m.stddev() == pytest.approx(1.0)

    def test_empty_query(self):
        tree = AggRangeTree2D.from_rows([(0, 0)], [(5,)])
        m, = tree.query(10, 20, 10, 20)
        assert m.count == 0 and m.avg() is None

    def test_empty_tree(self):
        tree = AggRangeTree2D.from_rows([], [])
        m, = tree.query(-1, 1, -1, 1)
        assert m.count == 0


class TestPrefixAggregate1D:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.tuples(coord, value), max_size=50), interval)
    def test_matches_bruteforce(self, rows, bounds):
        index = PrefixAggregate1D.from_rows(
            [k for k, _ in rows], [(v,) for _, v in rows]
        )
        m, = index.query(bounds[0], bounds[1])
        picked = [v for k, v in rows if bounds[0] <= k <= bounds[1]]
        assert m.count == len(picked)
        assert m.total == pytest.approx(sum(picked))

    def test_unsorted_input(self):
        index = PrefixAggregate1D.from_rows([5, 1, 3], [(50,), (10,), (30,)])
        m, = index.query(1, 3)
        assert m.count == 2 and m.total == 40.0

    def test_variance_numerical_floor(self):
        # identical values: variance must be exactly >= 0 despite
        # floating cancellation
        index = PrefixAggregate1D.from_rows([0, 1, 2], [(0.1,), (0.1,), (0.1,)])
        m, = index.query(0, 2)
        assert m.var() >= 0.0
        assert math.isclose(m.stddev(), 0.0, abs_tol=1e-9)
