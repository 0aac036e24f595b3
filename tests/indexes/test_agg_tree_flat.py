"""The array-built aggregate tree against its executable reference.

``_reference_agg_tree.ReferenceAggTree2D`` is the node-object builder
and recursive query the flat tree replaced.  The contract is
bit-identical answers for arbitrary floats -- ``Moments`` compare with
``==``, never ``approx`` -- plus the structural promises of the array
layout: few GC-tracked containers and a query that does not recurse.
"""

import gc
import inspect
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_agg_tree import ReferenceAggTree2D
from repro.indexes.agg_range_tree import AggRangeTree2D, PrefixAggregate1D

# Coordinates that tie heavily (a 4-value pool), integers, and floats
# including -0.0 and subnormals; measures stay below 1e150 so that no Σv²
# overflows to inf (inf - inf = nan, and nan != nan even when both agree).
tied = st.sampled_from([0, 1, 1.5, -0.0])
number = st.one_of(tied, st.integers(-40, 40), st.floats(-1e150, 1e150))
coord = st.one_of(tied, st.integers(-5, 5), st.floats(-1e3, 1e3))


@st.composite
def datasets(draw, max_size=40):
    width = draw(st.integers(0, 3))
    row = st.tuples(coord, coord, st.tuples(*[number] * width))
    rows = draw(st.lists(row, max_size=max_size))
    return width, [(x, y) for x, y, _ in rows], [v for _, _, v in rows]


rectangle = st.tuples(coord, coord, coord, coord)  # may be inverted / degenerate


def brute_count(points, xlo, xhi, ylo, yhi):
    return sum(1 for x, y in points if xlo <= x <= xhi and ylo <= y <= yhi)


def both(points, values, width, cascade):
    flat = AggRangeTree2D.from_rows(points, values, cascade=cascade, width=width)
    ref = ReferenceAggTree2D(points, values, cascade=cascade, width=width)
    return flat, ref


@settings(max_examples=300, deadline=None)
@given(datasets(), st.lists(rectangle, min_size=1, max_size=6), st.booleans())
def test_answers_equal_the_reference_bit_for_bit(data, rectangles, cascade):
    width, points, values = data
    flat, ref = both(points, values, width, cascade)
    assert len(flat) == len(ref) == len(points)
    for xlo, xhi, ylo, yhi in rectangles:
        got = flat.query(xlo, xhi, ylo, yhi)
        assert got == ref.query(xlo, xhi, ylo, yhi)
        assert got[0].count == brute_count(points, xlo, xhi, ylo, yhi)
        assert flat.count(xlo, xhi, ylo, yhi) == got[0].count


@settings(max_examples=150, deadline=None)
@given(datasets(max_size=20), st.data(), st.booleans())
def test_overlay_inserts_and_deletes_equal_the_reference(data, draw, cascade):
    width, points, values = data
    flat, ref = both(points, values, width, cascade)
    live = list(zip(points, values))
    extra = st.tuples(st.tuples(coord, coord), st.tuples(*[number] * width))
    for _ in range(draw.draw(st.integers(1, 8))):
        if live and draw.draw(st.booleans()):
            point, vals = live.pop(draw.draw(st.integers(0, len(live) - 1)))
            flat.delete(point, vals)
            ref.delete(point, vals)
        else:
            point, vals = draw.draw(extra)
            live.append((point, vals))
            flat.insert(point, vals)
            ref.insert(point, vals)
        assert flat.overlay_size == ref.overlay_size
        xlo, xhi, ylo, yhi = draw.draw(rectangle)
        got = flat.query(xlo, xhi, ylo, yhi)
        assert got == ref.query(xlo, xhi, ylo, yhi)
        assert got[0].count == brute_count(
            [p for p, _ in live], xlo, xhi, ylo, yhi
        )
        assert flat.count(xlo, xhi, ylo, yhi) == got[0].count
    assert len(flat) == len(ref) == len(live)


@settings(max_examples=150, deadline=None)
@given(datasets(max_size=20), st.data(), st.booleans())
def test_squares_kept_only_where_flagged(data, draw, cascade):
    # Σv is bit-identical to the all-squares reference, Σv² too where
    # flagged; an unflagged measure reports NaN -- overlay included
    width, points, values = data
    squares = draw.draw(st.lists(st.booleans(), min_size=width, max_size=width))
    flat = AggRangeTree2D.from_rows(
        points, values, cascade=cascade, width=width, squares=squares
    )
    ref = ReferenceAggTree2D(points, values, cascade=cascade, width=width)
    extra = draw.draw(st.tuples(st.tuples(coord, coord), st.tuples(*[number] * width)))
    flat.insert(*extra)
    ref.insert(*extra)
    for xlo, xhi, ylo, yhi in draw.draw(st.lists(rectangle, min_size=1, max_size=4)):
        got = flat.query(xlo, xhi, ylo, yhi)
        want = ref.query(xlo, xhi, ylo, yhi)
        if not width:
            assert got == want
        for g, w, squared in zip(got, want, squares):
            assert (g.count, g.total) == (w.count, w.total)
            if squared:
                assert g.total_sq == w.total_sq
            else:
                assert math.isnan(g.total_sq)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("cascade", [True, False])
def test_every_small_size_on_every_rank_rectangle(n, cascade):
    # distinct x and y, so every rectangle of ranks is addressable
    rng = random.Random(n)
    ys = list(range(n))
    rng.shuffle(ys)
    points = [(float(x), float(y)) for x, y in zip(range(n), ys)]
    values = [(rng.random(), rng.uniform(-5, 5)) for _ in range(n)]
    flat, ref = both(points, values, 2, cascade)
    bounds = [b - 0.5 for b in range(n + 2)]
    for xlo in bounds:
        for xhi in bounds:
            for ylo in bounds[::2]:
                for yhi in bounds:
                    assert flat.query(xlo, xhi, ylo, yhi) == ref.query(
                        xlo, xhi, ylo, yhi
                    )


def test_columns_and_rows_build_the_same_tree():
    rng = random.Random(5)
    points = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(60)]
    values = [(rng.random(),) for _ in points]
    xs, ys = zip(*points)
    by_columns = AggRangeTree2D(xs, ys, [[v for v, in values]])
    by_rows = AggRangeTree2D.from_rows(points, values)
    for _ in range(50):
        x, y = rng.randint(0, 9), rng.randint(0, 9)
        assert by_columns.query(x - 2, x + 2, y - 3, y + 3) == by_rows.query(
            x - 2, x + 2, y - 3, y + 3
        )


# -- construction rejects ragged measures (it used to truncate or IndexError) --


@pytest.mark.parametrize("values", [[(1.0,), (2.0, 3.0)], [(1.0, 2.0), (3.0,)]])
def test_ragged_measure_tuples_are_a_value_error(values):
    with pytest.raises(ValueError, match="measures"):
        AggRangeTree2D.from_rows([(0, 0), (1, 1)], values)
    with pytest.raises(ValueError, match="measures"):
        PrefixAggregate1D.from_rows([0, 1], values)


def test_mismatched_lengths_and_widths_are_value_errors():
    with pytest.raises(ValueError):
        AggRangeTree2D.from_rows([(0, 0), (1, 1)], [(1.0,)])
    with pytest.raises(ValueError):
        AggRangeTree2D.from_rows([(0, 0)], [(1.0,)], width=2)
    with pytest.raises(ValueError):
        AggRangeTree2D([0, 1], [0, 1], [[1.0]])
    with pytest.raises(ValueError):
        AggRangeTree2D([0, 1], [0])
    with pytest.raises(ValueError):
        PrefixAggregate1D([0, 1], [[1.0]])
    with pytest.raises(ValueError):
        PrefixAggregate1D.from_rows([0, 1], [(1.0,)])


# -- what the array layout promises --------------------------------------------


def tracked_containers(build):
    """GC-tracked objects a build leaves behind."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        tree = build()
        after = len(gc.get_objects())
    finally:
        gc.enable()
    del tree
    return after - before


@pytest.mark.parametrize("width, per_point", [(0, 2), (2, 6)])
def test_build_leaves_few_gc_tracked_containers(width, per_point):
    # the node-object tree left 14 + 4 * width per point
    rng = random.Random(1)
    n = 1000
    xs = [rng.random() for _ in range(n)]
    ys = [rng.random() for _ in range(n)]
    measures = [[rng.random() for _ in range(n)] for _ in range(width)]
    left = tracked_containers(lambda: AggRangeTree2D(xs, ys, measures))
    assert left <= per_point * n


@pytest.mark.parametrize("cascade", [True, False])
def test_query_and_build_do_not_recurse(cascade):
    rng = random.Random(2)
    n = 1 << 14  # 14 levels: a recursive build or descent needs 14+ frames
    points = [(rng.random(), rng.random()) for _ in range(n)]
    values = [(rng.random(),) for _ in range(n)]
    ref = ReferenceAggTree2D(points, values, cascade=cascade)
    expected = ref.query(0.1, 0.9, 0.2, 0.8)
    depth = len(inspect.stack())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 12)
    try:
        tree = AggRangeTree2D.from_rows(points, values, cascade=cascade)
        assert tree.query(0.1, 0.9, 0.2, 0.8) == expected
        with pytest.raises(RecursionError):
            ref.query(0.1, 0.9, 0.2, 0.8)
    finally:
        sys.setrecursionlimit(limit)
