"""The cell grid against brute force and the Figure-8 tree.

:class:`CellGrid` answers every box from its cells (and its overflow
list); :func:`grid_or_tree` builds the :class:`AggRangeTree2D` instead
when the data crowd a cell.  Either structure's answer must equal a
brute-force scan and the tree's answer exactly: the measures here are
integers and quarter-integers, whose sums are exact in floating point,
so ``==`` holds bit for bit.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.agg_range_tree import AggRangeTree2D
from repro.indexes.cell_grid import _MAX_CELL_LOAD, CellGrid, grid_or_tree
from repro.indexes.composite import GroupAggIndex
from repro.indexes.divisible import Moments

_INF = float("inf")

coord = st.one_of(
    st.sampled_from([0, 1, 1.5, -0.0]),
    st.integers(-20, 20),
    st.floats(-1e3, 1e3, allow_nan=False),
)
# far outside any built extent: inserts overflow, boxes miss the cells
far = st.one_of(st.integers(-10**6, -10**5), st.integers(10**5, 10**6))
measure = st.one_of(st.integers(-40, 40), st.integers(-400, 400).map(lambda v: v / 4))
bound = st.one_of(coord, far, st.sampled_from([-_INF, _INF]))
box = st.tuples(bound, bound, bound, bound)  # may be inverted or empty


@st.composite
def datasets(draw, max_size=60):
    width = draw(st.integers(0, 3))
    squares = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    record = st.tuples(coord, coord, *[measure] * width)
    records = draw(st.lists(record, max_size=max_size))
    return width, squares, records


def build(records, width, squares):
    columns = list(zip(*records)) or [()] * (2 + width)
    return CellGrid(columns[0], columns[1], columns[2:], squares=squares)


def tree_of(records, width, squares):
    columns = list(zip(*records)) or [()] * (2 + width)
    return AggRangeTree2D(columns[0], columns[1], columns[2:], squares=squares)


def brute(records, squares, xlo, xhi, ylo, yhi):
    inside = [r for r in records if xlo <= r[0] <= xhi and ylo <= r[1] <= yhi]
    if not squares:
        return (Moments(len(inside), 0.0, 0.0),)
    return tuple(
        Moments(
            len(inside),
            sum((float(r[j]) for r in inside), 0.0),
            sum((float(r[j]) ** 2 for r in inside), 0.0) if squared else math.nan,
        )
        for j, squared in enumerate(squares, 2)
    )


def same(a: tuple, b: tuple) -> bool:
    """``==`` on moment tuples, NaN (an unkept ``Σv²``) equal to NaN."""
    return len(a) == len(b) and all(
        (x.count, x.total) == (y.count, y.total)
        and (x.total_sq == y.total_sq or (math.isnan(x.total_sq) and math.isnan(y.total_sq)))
        for x, y in zip(a, b)
    )


def check(grid, records, width, squares, boxes):
    tree = tree_of(records, width, squares)
    assert len(grid) == len(records)
    for xlo, xhi, ylo, yhi in boxes:
        want = brute(records, squares, xlo, xhi, ylo, yhi)
        assert grid.count(xlo, xhi, ylo, yhi) == want[0].count
        assert tree.count(xlo, xhi, ylo, yhi) == want[0].count
        got = grid.query(xlo, xhi, ylo, yhi)
        assert same(got, want), (got, want)
        assert same(got, tree.query(xlo, xhi, ylo, yhi))


@settings(max_examples=300, deadline=None)
@given(datasets(), st.lists(box, min_size=1, max_size=6))
def test_answers_equal_brute_force_and_the_tree(data, boxes):
    width, squares, records = data
    grid = build(records, width, squares)
    check(grid, records, width, squares, boxes)


@settings(max_examples=100, deadline=None)
@given(datasets(), st.lists(box, max_size=4))
def test_whole_map_and_half_open_boxes(data, boxes):
    # what _compile_side emits for a missing side: an infinite bound
    width, squares, records = data
    grid = build(records, width, squares)
    boxes = boxes + [(-_INF, _INF, -_INF, _INF), (0, _INF, -_INF, 0), (_INF, -_INF, 0, 0)]
    check(grid, records, width, squares, boxes)


def lattice(n: int, side: int, width: int = 1):
    """*n* distinct lattice points, measures derived from the position."""
    return [
        (i % side, i // side, *[(i * (j + 3)) % 17 - 8 for j in range(width)])
        for i in range(n)
    ]


def test_small_and_large_boxes_scan_the_cells():
    records = lattice(400, 20, width=2)
    grid = build(records, 2, [True, False])
    assert grid.max_load == 1
    small = [(x - 2, x + 2, y - 1.5, y + 1) for x in range(0, 20, 3) for y in range(0, 20, 4)]
    large = [(1, 18, 2, 17), (-5, 30, 3, 3), (-_INF, _INF, -_INF, _INF)]
    check(grid, records, 2, [True, False], small + large)


def test_a_whole_extent_count_reads_the_size():
    records = lattice(400, 20, width=1)
    grid = build(records, 1, [True])
    grid.insert((50, 50), (1,))  # an overflow record outside the box
    assert grid.count(-1, 19, 0, 19) == 400
    assert grid.count(-_INF, _INF, -_INF, _INF) == 401


def test_uniform_data_get_the_grid_and_a_crowded_cell_the_tree():
    columns = list(zip(*lattice(400, 20)))
    assert isinstance(grid_or_tree(columns[0], columns[1], columns[2:]), CellGrid)
    # everything on one spot but one outlier: one cell holds all but one
    records = [(5, 5, i) for i in range(_MAX_CELL_LOAD + 1)] + [(100, 100, 1)]
    assert build(records, 1, [False]).max_load == _MAX_CELL_LOAD + 1
    columns = list(zip(*records))
    index = grid_or_tree(columns[0], columns[1], columns[2:], squares=[False])
    assert isinstance(index, AggRangeTree2D)
    boxes = [(5, 5, 5, 5), (0, 200, 0, 200), (6, 7, 5, 5)]
    check(index, records, 1, [False], boxes)
    # a grid over the same crowded data still answers exactly
    check(build(records, 1, [False]), records, 1, [False], boxes)
    # one row fewer in the cell: the grid
    records = records[1:]
    columns = list(zip(*records))
    assert isinstance(grid_or_tree(columns[0], columns[1], columns[2:]), CellGrid)


def test_degenerate_extents():
    for records in (
        [],
        [(3, 4, 1)],
        [(3, y, y) for y in range(30)],  # a vertical line: zero width
        [(x * 1e-300, 0, x) for x in range(10)],  # a tiny extent
    ):
        grid = build(records, 1, [True])
        check(grid, records, 1, [True], [(-_INF, _INF, -_INF, _INF), (3, 3, 4, 4), (0, 5, 0, 5)])


def test_an_infinite_extent_overflows_and_falls_back_to_the_tree():
    boxes = [(-_INF, _INF, -1, 1), (0, 0, 0, 0), (_INF, _INF, 1, 1)]
    records = [(-_INF, 0, 1), (0, 0, 2), (_INF, 1, 3)]
    grid = build(records, 1, [True])
    assert grid.max_load == grid.overlay_size == 3  # all in the overflow
    check(grid, records, 1, [True], boxes)
    records += [(i, i, i) for i in range(_MAX_CELL_LOAD)]
    columns = list(zip(*records))
    index = grid_or_tree(columns[0], columns[1], columns[2:])
    assert isinstance(index, AggRangeTree2D)
    check(index, records, 1, [True], boxes)


def test_measure_arity_is_checked():
    grid = build([(0, 0, 1)], 1, [True])
    with pytest.raises(ValueError, match="expected 1 measures"):
        grid.insert((0, 0), (1, 2))
    with pytest.raises(ValueError, match="equal length"):
        CellGrid([0, 1], [0])
    with pytest.raises(ValueError, match="one value per point"):
        CellGrid([0, 1], [0, 1], [[1]])


def test_deleting_an_absent_record_fails_loudly():
    grid = build(lattice(40, 8), 1, [True])
    with pytest.raises(ValueError, match="no record"):
        grid.delete((0, 0), (99,))
    with pytest.raises(ValueError, match="no record"):
        grid.delete((10**6, 0), (1,))  # outside the extent: the overflow


# -- insert/delete ----------------------------------------------------------------


@st.composite
def histories(draw):
    width, squares, records = draw(datasets(max_size=40))
    point = st.one_of(st.tuples(coord, coord), st.tuples(far, coord), st.tuples(coord, far))
    steps = []
    live = len(records)
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["insert", "delete", "probe", "whole"]))
        if kind == "insert":
            x, y = draw(point)
            steps.append(("insert", (x, y, *[draw(measure) for _ in range(width)])))
            live += 1
        elif kind == "delete" and live:
            steps.append(("delete", draw(st.integers(0, live - 1))))
            live -= 1
        elif kind == "probe":
            steps.append(("probe", draw(box)))
        else:  # a whole-map probe: every cell and the overflow
            steps.append(("probe", (-_INF, _INF, -_INF, _INF)))
    return width, squares, records, steps


@settings(max_examples=300, deadline=None)
@given(histories(), st.lists(box, min_size=1, max_size=3))
def test_insert_delete_equal_a_fresh_build(history, boxes):
    """Patches, records outside the built extent included, answer like
    a build of the live rows."""
    width, squares, records, steps = history
    grid = build(records, width, squares)
    live = list(records)
    for kind, arg in steps:
        if kind == "insert":
            grid.insert(arg[:2], arg[2:])
            live.append(arg)
        elif kind == "delete":
            gone = live.pop(arg)
            grid.delete(gone[:2], gone[2:])
        else:
            check(grid, live, width, squares, [arg])
    check(grid, live, width, squares, boxes)
    x0, x1, y0, y1 = grid._x0, grid._x1, grid._y0, grid._y1
    outside = [r for r in live if not (x0 <= r[0] <= x1 and y0 <= r[1] <= y1)]
    crowded = sum(max(0, len(cell) - _MAX_CELL_LOAD) for cell in grid._cells)
    assert grid.overlay_size == len(outside) + crowded


def test_a_record_that_leaves_the_extent_is_scanned_from_the_overflow():
    records = lattice(100, 10)
    grid = build(records, 1, [True])
    moved = (50, 50, records[0][2])
    grid.delete(records[0][:2], records[0][2:])
    grid.insert(moved[:2], moved[2:])
    assert grid.overlay_size == 1
    live = records[1:] + [moved]
    check(grid, live, 1, [True], [(49, 51, 49, 51), (-_INF, _INF, -_INF, _INF)])
    grid.delete(moved[:2], moved[2:])
    assert grid.overlay_size == 0


def test_rows_crowding_a_cell_count_as_overlay():
    records = lattice(100, 10)
    grid = build(records, 1, [True])
    assert grid.overlay_size == 0
    live = list(records)
    for i in range(_MAX_CELL_LOAD + 5):  # onto the cell of (4, 4)
        added = (4, 4, i)
        grid.insert(added[:2], added[2:])
        live.append(added)
    # the cell holds 1 + _MAX_CELL_LOAD + 5 rows: 6 past the load
    assert grid.overlay_size == 6
    check(grid, live, 1, [True], [(3, 5, 3, 5), (-_INF, _INF, -_INF, _INF)])
    for i in range(3):
        grid.delete((4, 4), (i,))
        live.remove((4, 4, i))
    assert grid.overlay_size == 3
    check(grid, live, 1, [True], [(3, 5, 3, 5)])
    columns = list(zip(*live))
    assert isinstance(grid_or_tree(columns[0], columns[1], columns[2:]), AggRangeTree2D)


def test_group_agg_index_routes_two_dims_to_the_grid():
    rows = [
        {"posx": x, "posy": y, "hp": (x * 7 + y) % 11}
        for x in range(12)
        for y in range(12)
    ]
    group = GroupAggIndex(rows, ("posx", "posy"), [lambda r: r["hp"]], squares=[True])
    assert group.on_grid
    records = [(r["posx"], r["posy"], r["hp"]) for r in rows]
    for bounds in (((2, 4), (3, 5)), ((-_INF, _INF), (-_INF, _INF))):
        (xlo, xhi), (ylo, yhi) = bounds
        assert group.count(bounds) == brute(records, [True], xlo, xhi, ylo, yhi)[0].count
        assert same(group.query(bounds), brute(records, [True], xlo, xhi, ylo, yhi))
    assert not GroupAggIndex(rows, ("posx",), []).on_grid
