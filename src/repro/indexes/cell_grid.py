"""Uniform cell grid over two range attributes: divisible aggregates in
O(degree) per probe, and the Figure-8 tree for data a grid answers badly.

A battle is a database of bounded degree (Berkholz, Keppeler &
Schweikardt, PAPERS.md): units hold distinct map cells and a probe box
is at most 25 cells wide (radii 1--12), so a box holds a handful of rows
however many units the map carries.  A grid of square cells answers such
a probe by scanning the few cells the box touches, and is built in one
O(n) pass -- against an O(log² n) walk per probe and an O(n log n) build
for :class:`~repro.indexes.agg_range_tree.AggRangeTree2D`, which the
engine rebuilds every tick.

:class:`CellGrid` takes the cell side from its own data,
``sqrt(bbox area / n)`` (about one row per cell; never less than
``max(width, height) / n``, so a thin strip still gets at most ~3n
cells).  :func:`grid_or_tree` keeps it unless the data crowd a cell --
more than ``_MAX_CELL_LOAD`` rows in one, i.e. data far from uniform over
their bounding box, or an infinite extent -- and builds the tree instead.
The threshold is a constant read off data, not a knob.

**Maintenance.**  ``insert``/``delete`` patch the cell lists in place,
O(1) per row while cells stay small.  A row outside the built extent
goes to an overflow list that every probe scans.  ``overlay_size``
counts that list and the rows past ``_MAX_CELL_LOAD`` in any cell: the
probe cost a caller pays for not rebuilding.  (The evaluator rebuilds
every tick and calls neither.)

**Answers.**  A probe tests each scanned row against the closed box and
sums the same ``float`` measure values the tree's prefix arrays
difference, so grid and tree answers are both exact -- and equal --
whenever the measure sums are exact in floating point (integer-valued
measures, like every measure of the battle).
"""

from __future__ import annotations

from math import isfinite, sqrt
from operator import mul
from typing import Sequence

from .agg_range_tree import AggRangeTree2D, _moments, _squares
from .divisible import Moments

#: ``(x, y, v...)``: one row's coordinates and measure values, as floats.
Record = tuple[float, ...]

#: A build whose most-loaded cell holds more rows than this gets the
#: tree instead of the grid.  On the uniform 2000-unit battle the fullest
#: cell of a group holds 5 rows at the first tick and 9-11 by tick 50, as
#: knights close ranks (5000 units: 6, then 9 by tick 24), so 16 keeps
#: those groups on the grid.  The price is paid in dense blocks: there
#: a radius-3 count costs 21 us on the grid against 9.5 us on the tree
#: at 9 rows per cell, and 24 vs 9.7 us at 16.
_MAX_CELL_LOAD = 16


class CellGrid:
    """2-d divisible-aggregate index over a uniform cell grid.

    The constructor takes :class:`~repro.indexes.agg_range_tree.
    AggRangeTree2D`'s arguments -- one coordinate column each, one value
    column per measure, and per measure whether its ``Σv²`` is kept --
    and the grid answers the tree's ``count``/``query`` over closed
    rectangles.  ``max_load`` is the most rows the build filed in one
    cell (or in the overflow list, where an infinite extent files all).
    """

    def __init__(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        measures: Sequence[Sequence[float]] = (),
        *,
        squares: Sequence[bool] | None = None,
    ):
        xs = list(map(float, xs))
        ys = list(map(float, ys))
        n = len(xs)
        if len(ys) != n:
            raise ValueError("xs and ys must have equal length")
        self.width = len(measures)
        self._squares = _squares(squares, self.width)
        columns = [list(map(float, measure)) for measure in measures]
        if any(len(column) != n for column in columns):
            raise ValueError("every measure column must have one value per point")
        self._size = n
        #: records outside the built extent
        self._overflow: list[Record] = []
        records = zip(xs, ys, *columns)
        inf = float("inf")
        x0, x1, y0, y1 = (
            (min(xs), max(xs), min(ys), max(ys)) if n else (inf, -inf, inf, -inf)
        )
        w, h = x1 - x0, y1 - y0
        if not (isfinite(w) and isfinite(h)):
            # no points or an infinite extent: no cells, every record
            # overflows (an empty extent holds no point)
            self._x0 = self._y0 = inf
            self._x1 = self._y1 = -inf
            self._inv = 0.0
            self._nx = 0
            self._cells: list[list[Record]] = []
            self._overflow += records
            self.max_load = n
            self._crowded = 0
            return
        side = max(sqrt(w * h / n), max(w, h) / n)
        inv = 1.0 / side if side > 0.0 else 0.0
        if not isfinite(inv):
            inv = 0.0  # coincident points: one cell
        nx = int(w * inv) + 1
        cells: list[list[Record]] = [[] for _ in range(nx * (int(h * inv) + 1))]
        # The cell map is monotone in each coordinate, so a record inside
        # a box lies in one of the cells the clipped box maps to.
        for record in records:
            cells[
                int((record[0] - x0) * inv) + int((record[1] - y0) * inv) * nx
            ].append(record)
        self._cells = cells
        self._x0, self._x1, self._y0, self._y1 = x0, x1, y0, y1
        self._inv = inv
        self._nx = nx
        self.max_load = max(map(len, cells))
        #: rows past _MAX_CELL_LOAD, summed over the cells
        self._crowded = (
            0
            if self.max_load <= _MAX_CELL_LOAD
            else sum(len(c) - _MAX_CELL_LOAD for c in cells if len(c) > _MAX_CELL_LOAD)
        )

    def __len__(self) -> int:
        return self._size

    @property
    def overlay_size(self) -> int:
        """Rows a probe scans beyond the grid's design: the overflow
        list, and the rows past ``_MAX_CELL_LOAD`` in any cell."""
        return len(self._overflow) + self._crowded

    # -- incremental maintenance --------------------------------------------------

    def _record(self, point: tuple[float, float], values: Sequence[float]) -> Record:
        record = (float(point[0]), float(point[1]), *map(float, values))
        if len(record) != 2 + self.width:
            raise ValueError(
                f"expected {self.width} measures, got {len(record) - 2}"
            )
        return record

    def _cell_of(self, record: Record) -> list[Record] | None:
        """The cell list *record* belongs in; ``None`` outside the extent."""
        x, y = record[0], record[1]
        if self._x0 <= x <= self._x1 and self._y0 <= y <= self._y1:
            inv = self._inv
            return self._cells[
                int((x - self._x0) * inv) + int((y - self._y0) * inv) * self._nx
            ]
        return None

    def insert(self, point: tuple[float, float], values: Sequence[float] = ()) -> None:
        record = self._record(point, values)
        cell = self._cell_of(record)
        if cell is None:
            self._overflow.append(record)
        else:
            cell.append(record)
            if len(cell) > _MAX_CELL_LOAD:
                self._crowded += 1
        self._size += 1

    def delete(self, point: tuple[float, float], values: Sequence[float] = ()) -> None:
        """Remove one record previously built in or inserted."""
        record = self._record(point, values)
        cell = self._cell_of(record)
        try:
            (self._overflow if cell is None else cell).remove(record)
        except ValueError:
            raise ValueError(f"no record {record!r} in the grid") from None
        if cell is not None and len(cell) >= _MAX_CELL_LOAD:
            self._crowded -= 1  # the cell held more than _MAX_CELL_LOAD
        self._size -= 1

    # -- queries ------------------------------------------------------------------

    def _cells_in(self, xlo, xhi, ylo, yhi) -> list[list[Record]]:
        """The cell lists the box touches once clipped to the extent."""
        x0, y0 = self._x0, self._y0
        lo = xlo if xlo > x0 else x0
        hi = xhi if xhi < self._x1 else self._x1
        blo = ylo if ylo > y0 else y0
        bhi = yhi if yhi < self._y1 else self._y1
        if not (lo <= hi and blo <= bhi):
            return []
        inv = self._inv
        cx0 = int((lo - x0) * inv)
        span = int((hi - x0) * inv) - cx0 + 1
        cy0 = int((blo - y0) * inv)
        rows = int((bhi - y0) * inv) - cy0 + 1
        nx = self._nx
        cells = self._cells
        start = cy0 * nx + cx0
        if rows == 1:
            return cells[start : start + span]
        out: list[list[Record]] = []
        for base in range(start, start + rows * nx, nx):
            out += cells[base : base + span]
        return out

    def count(self, xlo, xhi, ylo, yhi) -> int:
        """Records in the closed rectangle, summing no column.  A box
        that holds the whole extent counts the cells' records untested."""
        if xlo <= self._x0 and self._x1 <= xhi and ylo <= self._y0 and self._y1 <= yhi:
            # the box holds every cell: their records need no test
            cells: list[list[Record]] = []
            count = self._size - len(self._overflow)
        else:
            cells = self._cells_in(xlo, xhi, ylo, yhi)
            count = 0
        for cell in cells:
            for record in cell:
                if xlo <= record[0] <= xhi and ylo <= record[1] <= yhi:
                    count += 1
        for record in self._overflow:
            if xlo <= record[0] <= xhi and ylo <= record[1] <= yhi:
                count += 1
        return count

    def query(self, xlo, xhi, ylo, yhi) -> tuple[Moments, ...]:
        """Per-measure :class:`Moments` of the closed rectangle; with
        zero measures the single :class:`Moments` carries the count."""
        hits = [
            record
            for cell in self._cells_in(xlo, xhi, ylo, yhi)
            for record in cell
            if xlo <= record[0] <= xhi and ylo <= record[1] <= yhi
        ]
        hits += [
            record
            for record in self._overflow
            if xlo <= record[0] <= xhi and ylo <= record[1] <= yhi
        ]
        acc: list[float] = []
        columns = list(zip(*hits))
        for j, squared in enumerate(self._squares, 2):
            column = columns[j] if hits else ()
            acc.append(sum(column, 0.0))
            if squared:
                acc.append(sum(map(mul, column, column), 0.0))
        return _moments(len(hits), acc, self._squares)


def grid_or_tree(
    xs: Sequence[float],
    ys: Sequence[float],
    measures: Sequence[Sequence[float]] = (),
    *,
    squares: Sequence[bool] | None = None,
) -> CellGrid | AggRangeTree2D:
    """The 2-d index the data call for: a :class:`CellGrid`, or the
    Figure-8 tree when the grid's build filed more than
    ``_MAX_CELL_LOAD`` rows in one cell (or in its overflow list)."""
    grid = CellGrid(xs, ys, measures, squares=squares)
    if grid.max_load <= _MAX_CELL_LOAD:
        return grid
    return AggRangeTree2D(xs, ys, measures, squares=squares)
