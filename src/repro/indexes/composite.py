"""Layered index composition: hash layers above spatial/aggregate layers.

Section 5.3.2: "to process these type of queries, we place the spatial
indices as the lowest level of a layered range tree" -- and Section
5.3.1 replaces categorical levels with hashtables.  The composition
order follows index volatility (Section 5.3.1): attributes that change
rarely (player, unit type) sit above attributes that change every tick
(position), maximising structure reuse.

This module provides ready-made compositions used by the indexed
evaluator:

* :func:`partitioned_agg_tree` -- hash layer → divisible-aggregate
  range tree (Figure 8) for count/sum/avg/var/stddev range aggregates;
* :func:`partitioned_kdtree` -- hash layer → kD-tree for
  nearest-neighbour aggregates (Section 5.3.2);
* :func:`partitioned_rows` -- hash layer → plain row lists, the shared
  baseline for residual-predicate fallbacks.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .agg_range_tree import AggRangeTree2D, PrefixAggregate1D
from .divisible import Moments
from .hash_layer import PartitionedIndex
from .kdtree import KDTree

Row = Mapping[str, object]


def partitioned_rows(
    rows: Iterable[Row], cat_attrs: tuple[str, ...]
) -> PartitionedIndex[list[Row]]:
    """Hash layer over plain row lists (fallback scans stay partitioned)."""
    return PartitionedIndex(rows, cat_attrs, factory=list)


def partitioned_kdtree(
    rows: Iterable[Row],
    cat_attrs: tuple[str, ...],
    x: str = "posx",
    y: str = "posy",
) -> PartitionedIndex[KDTree]:
    """Hash layer over kD-trees; tree items are the row dicts."""

    def factory(group: list[Row]) -> KDTree:
        return KDTree([(r[x], r[y]) for r in group], group)

    return PartitionedIndex(rows, cat_attrs, factory)


class GroupAggIndex:
    """Divisible-aggregate index over one category group.

    Adapts to the number of continuous range dimensions:

    * 0 dims -- precomputed total :class:`Moments` per measure;
    * 1 dim  -- :class:`PrefixAggregate1D`;
    * 2 dims -- :class:`AggRangeTree2D` (Figure 8).

    ``query(bounds)`` takes one closed interval per continuous dim and
    returns per-measure :class:`Moments`.  *squares* says per measure
    whether a range structure keeps its ``Σv²`` prefix (``None``: all).
    """

    def __init__(
        self,
        rows: list[Row],
        range_attrs: tuple[str, ...],
        measures: Sequence[Callable[[Row], float]],
        *,
        squares: Sequence[bool] | None = None,
        cascade: bool = True,
    ):
        if len(range_attrs) > 2:
            raise ValueError(
                "GroupAggIndex supports at most 2 continuous dimensions; "
                "use the general RangeTree for more"
            )
        self.range_attrs = range_attrs
        self._measures = list(measures)
        self.width = len(measures)
        columns = [list(map(measure, rows)) for measure in measures]
        if not range_attrs:
            totals = [Moments() for _ in measures] or [Moments(len(rows))]
            for moment, column in zip(totals, columns):
                for v in column:
                    moment.add(v)
            self._total = tuple(totals)
            self._index: object = None
        elif len(range_attrs) == 1:
            attr = range_attrs[0]
            self._index = PrefixAggregate1D(
                [row[attr] for row in rows], columns, squares=squares
            )
        else:
            ax, ay = range_attrs
            self._index = AggRangeTree2D(
                [row[ax] for row in rows],
                [row[ay] for row in rows],
                columns,
                squares=squares,
                cascade=cascade,
            )

    # -- incremental maintenance --------------------------------------------------

    def values_of(self, row: Row) -> tuple[float, ...]:
        """The row's measure-value tuple (pass to insert/delete to avoid
        re-evaluating the compiled measure functions)."""
        return tuple(m(row) for m in self._measures)

    def insert(self, row: Row, values: tuple[float, ...] | None = None) -> None:
        """Fold one new row into the group's aggregate state."""
        if values is None:
            values = self.values_of(row)
        if not self.range_attrs:
            if self._measures:
                for moment, v in zip(self._total, values):
                    moment.add(v)
            else:
                self._total[0].count += 1
        elif len(self.range_attrs) == 1:
            self._index.insert(row[self.range_attrs[0]], values)
        else:
            ax, ay = self.range_attrs
            self._index.insert((row[ax], row[ay]), values)

    def delete(self, row: Row, values: tuple[float, ...] | None = None) -> None:
        """Remove one row's contribution (moments are invertible)."""
        if values is None:
            values = self.values_of(row)
        if not self.range_attrs:
            if self._measures:
                for moment, v in zip(self._total, values):
                    moment.remove(v)
            else:
                self._total[0].count -= 1
        elif len(self.range_attrs) == 1:
            self._index.delete(row[self.range_attrs[0]], values)
        else:
            ax, ay = self.range_attrs
            self._index.delete((row[ax], row[ay]), values)

    @property
    def overlay_size(self) -> int:
        """Live delta entries pending in the underlying structure.

        Zero-dimensional groups fold every change into their totals with
        no residue, so their overlay is always empty.  Cancelled
        insert/delete pairs (a unit oscillating between two cells) also
        leave no residue, which is why the maintenance policy gauges
        this instead of a cumulative mutation count.
        """
        if not self.range_attrs:
            return 0
        return self._index.overlay_size

    def count(self, bounds: Sequence[tuple[float, float]]) -> int:
        """Rows within *bounds*; a 2-d tree sums none of its columns."""
        if len(self.range_attrs) == 2 and len(bounds) == 2:
            (xlo, xhi), (ylo, yhi) = bounds
            return self._index.count(xlo, xhi, ylo, yhi)
        return self.query(bounds)[0].count

    def query(self, bounds: Sequence[tuple[float, float]]) -> tuple[Moments, ...]:
        if len(bounds) != len(self.range_attrs):
            raise ValueError(
                f"expected {len(self.range_attrs)} bounds, got {len(bounds)}"
            )
        if not self.range_attrs:
            return self._total
        if len(self.range_attrs) == 1:
            lo, hi = bounds[0]
            return self._index.query(lo, hi)
        (xlo, xhi), (ylo, yhi) = bounds
        return self._index.query(xlo, xhi, ylo, yhi)


def partitioned_agg_tree(
    rows: Iterable[Row],
    cat_attrs: tuple[str, ...],
    range_attrs: tuple[str, ...],
    measures: Sequence[Callable[[Row], float]],
    *,
    cascade: bool = True,
) -> PartitionedIndex[GroupAggIndex]:
    """Hash layer → :class:`GroupAggIndex` per category group."""

    def factory(group: list[Row]) -> GroupAggIndex:
        return GroupAggIndex(group, range_attrs, measures, cascade=cascade)

    return PartitionedIndex(rows, cat_attrs, factory)
