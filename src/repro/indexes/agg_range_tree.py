"""Divisible-aggregate layered range trees (Figure 8), built from arrays.

For a divisible aggregate (Definition 5.1) the last layer of the range
tree stores *prefix aggregates* instead of elements: position i of a
canonical node's y-order holds ``agg(y_1 ... y_i)``.  The aggregate of
any orthogonal range is then recovered from a constant number of prefix
look-ups per canonical node -- O(log n) per query with fractional
cascading, independent of how many units fall inside the range.  This is
the index that defeats the ``+k`` enumeration cost when armies are
clustered ("if k is close to n, then the join will still be O(n²)").

One tree answers count, sum, avg, var and stddev for every measure
simultaneously ("we can combine these aggregates into one index
structure by replacing the list of aggregates with a list of aggregate
tuples"): per measure it keeps prefix ``Σv``, plus prefix ``Σv²`` for
the measures named in ``squares`` (the ones some reader finalizes as
var/stddev; by default all), and the count of a y-position range is the
difference of the positions.  A measure without ``Σv²`` answers
``Moments.total_sq`` as NaN, so a variance read by mistake is never a
plausible number.

**Layout.**  The engine rebuilds its indexes every tick at battle churn,
and a tree with them wherever a group's data crowd a cell of the grid
that answers first (:mod:`repro.indexes.cell_grid`), so there are no
node objects.  Elements are identified by their *x-rank* (position in
the stable x-order); a node is the rank interval ``[lo, hi)`` it covers,
split at ``lo + (hi - lo) // 2``; internal nodes are numbered in
preorder, which makes the children of node ``k`` the nodes ``k + 1`` and
``k + (hi - lo) // 2`` with no pointers.  Per internal node the tree
stores only flat lists, each produced by one whole-list pass over the
node's ranks in y-order: a prefix array per measure column that restarts
from ``0.0``, and the left bridge (how many of the first i elements went
left; the right bridge is ``i`` minus that).  Leaves are not stored: a
size-1 node is its rank, answered from the columns.  Answers are
bit-identical to a bottom-up merge build for arbitrary floats because
the split, the within-node y-order (ties by x-rank), the per-node prefix
restart and the left-to-right order of canonical nodes are the same --
``docs/architecture.md`` ("The index layer") has the argument and
``tests/indexes/_reference_agg_tree.py`` the executable reference.

:class:`PrefixAggregate1D` is the degenerate one-dimensional case used
when only one continuous attribute is constrained.

Both structures also support **incremental maintenance**: ``insert`` /
``delete`` record changed elements in a small delta overlay that every
query folds in (add inserted-in-range, subtract deleted-in-range --
exact because moments form a group under merge/subtract).  The static
arrays are never restructured.  The indexed evaluator does not call
these: it rebuilds from scratch every tick, the paper's default.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from math import nan
from operator import mul
from typing import Iterable, Sequence

from .divisible import Moments


class _DeltaOverlay:
    """Pending insert/delete entries with exact cancellation.

    Shared by the 1-d and 2-d structures.  An entry is a tuple ending
    in its measure-value tuple, mapped to a signed multiplicity (inserts
    minus deletes) so cancellation is O(1) -- oscillating elements
    leave no residue and high-churn ticks stay linear in the delta.
    ``fold`` applies the in-range entries to the running count and the
    accumulators laid out by :func:`_moment_columns` -- exact because
    moments form a group.
    """

    __slots__ = ("entries", "size")

    def __init__(self):
        self.entries: dict[tuple, int] = {}  # entry -> signed multiplicity
        self.size = 0  # Σ |multiplicity|: live entries queries must scan

    def __len__(self) -> int:
        return self.size

    def _shift(self, entry: tuple, sign: int) -> None:
        count = self.entries.get(entry, 0)
        updated = count + sign
        self.size += abs(updated) - abs(count)
        if updated:
            self.entries[entry] = updated
        else:
            del self.entries[entry]

    def insert(self, entry: tuple) -> None:
        self._shift(entry, 1)

    def delete(self, entry: tuple) -> None:
        self._shift(entry, -1)

    def fold(
        self, count: int, acc: list[float], contains, squares: tuple[bool, ...]
    ) -> int:
        for entry, multiplicity in self.entries.items():
            if contains(entry):
                count += multiplicity
                j = 0
                for v, squared in zip(entry[-1], squares):
                    acc[j] += multiplicity * v
                    if squared:
                        acc[j + 1] += multiplicity * v * v
                        j += 2
                    else:
                        j += 1
        return count


def _transpose(values, n: int, width: int | None) -> list:
    """Per-row measure tuples -> one column per measure (``from_rows``)."""
    if values is None:
        values = [()] * n
    if len(values) != n:
        raise ValueError("points and values must have equal length")
    try:
        columns = list(zip(*values, strict=True)) if n else [()] * (width or 0)
    except ValueError:
        raise ValueError(
            f"expected {len(values[0])} measures in every row"
        ) from None
    if width is not None and len(columns) != width:
        raise ValueError(f"expected {width} measures, got {len(columns)}")
    return columns


def _squares(squares, width: int) -> tuple[bool, ...]:
    """Which measures keep a ``Σv²`` column; ``None`` means all."""
    if squares is None:
        return (True,) * width
    squares = tuple(map(bool, squares))
    if len(squares) != width:
        raise ValueError(f"expected {width} squares flags, got {len(squares)}")
    return squares


def _moment_columns(measures, squares: tuple[bool, ...], n: int) -> list[list[float]]:
    """Per measure its float column, followed by its column of squares
    when *squares* keeps one: the running sums :class:`Moments` needs."""
    columns: list[list[float]] = []
    for measure, squared in zip(measures, squares):
        column = list(map(float, measure))
        if len(column) != n:
            raise ValueError("every measure column must have one value per point")
        columns.append(column)
        if squared:
            columns.append(list(map(mul, column, column)))
    return columns


def _moments(
    count: int, acc: list[float], squares: tuple[bool, ...]
) -> tuple[Moments, ...]:
    """Per-measure moments from accumulators laid out like
    :func:`_moment_columns`; with zero measures the single
    :class:`Moments` carries the count only."""
    if not squares:
        return (Moments(count, 0.0, 0.0),)
    out = []
    j = 0
    for squared in squares:
        if squared:
            out.append(Moments(count, acc[j], acc[j + 1]))
            j += 2
        else:
            out.append(Moments(count, acc[j], nan))
            j += 1
    return tuple(out)


class AggRangeTree2D:
    """2-d range tree answering divisible aggregates in O(log n).

    Parameters
    ----------
    xs, ys:
        One coordinate column each.
    measures:
        One value column per measure (all measures share the tree);
        empty for pure counting.  :meth:`from_rows` takes ``(x, y)``
        pairs and per-point value tuples instead.
    squares:
        Per measure, whether to keep its ``Σv²`` prefix (needed only
        for var/stddev); ``None`` keeps every one.
    cascade:
        Enable fractional cascading (bridge pointers).  The engine
        always cascades; only the A-FC ablation bench and the tree
        tests pass ``False``.
    """

    def __init__(
        self,
        xs: Iterable[float],
        ys: Iterable[float],
        measures: Sequence[Iterable[float]] = (),
        *,
        squares: Sequence[bool] | None = None,
        cascade: bool = True,
    ):
        xs = list(map(float, xs))
        ys = list(map(float, ys))
        n = len(xs)
        if len(ys) != n:
            raise ValueError("xs and ys must have equal length")
        self.cascade = cascade
        self.width = len(measures)
        self._squares = _squares(squares, self.width)
        self._size = n
        # Columns by x-rank: position in the stable x-order is the only
        # identity an element has below this line.
        order = sorted(range(n), key=xs.__getitem__)
        self._xs = [xs[i] for i in order]
        self._ys = [ys[i] for i in order]
        self._cols = [
            [column[i] for i in order]
            for column in _moment_columns(measures, self._squares, n)
        ]
        # Per internal node, in preorder: its left bridge (cascade) or
        # its y-array (no cascade; the root's either way), and one
        # restarted prefix array per entry of ``_cols``.
        self._bridge: list[list[int]] = []
        self._node_ys: list[list[float]] = []
        self._prefix: list[list[float]] = []
        self._build()
        # delta overlay of (x, y, values) triples since build
        self._overlay = _DeltaOverlay()

    @classmethod
    def from_rows(
        cls,
        points: Sequence[tuple[float, float]],
        values: Sequence[Sequence[float]] | None = None,
        *,
        cascade: bool = True,
        width: int | None = None,
        squares: Sequence[bool] | None = None,
    ) -> "AggRangeTree2D":
        """Build from ``(x, y)`` pairs and per-point measure tuples."""
        xs, ys = zip(*points) if points else ((), ())
        return cls(
            xs,
            ys,
            _transpose(values, len(points), width),
            squares=squares,
            cascade=cascade,
        )

    def __len__(self) -> int:
        return self._size

    @property
    def overlay_size(self) -> int:
        """Number of pending delta entries (queries scan these linearly)."""
        return len(self._overlay)

    # -- incremental maintenance --------------------------------------------------

    def _entry(
        self, point: tuple[float, float], values: Sequence[float]
    ) -> tuple[float, float, tuple[float, ...]]:
        entry = (
            float(point[0]),
            float(point[1]),
            tuple(float(v) for v in values),
        )
        if len(entry[2]) != self.width:
            raise ValueError(f"expected {self.width} measures, got {len(entry[2])}")
        return entry

    def insert(self, point: tuple[float, float], values: Sequence[float] = ()) -> None:
        self._overlay.insert(self._entry(point, values))
        self._size += 1

    def delete(self, point: tuple[float, float], values: Sequence[float] = ()) -> None:
        """Remove one element previously built-in or inserted.

        The overlay cannot verify per-element membership against the
        static tree (it stores prefix aggregates, not elements), so a
        wrong (point, values) pair is the caller's bug; the size
        invariant at least fails loudly on gross over-deletion.
        """
        self._overlay.delete(self._entry(point, values))
        self._size -= 1
        if self._size < 0:
            raise ValueError("deleted more elements than the tree holds")

    # -- construction -----------------------------------------------------------

    def _build(self) -> None:
        """Top-down, one internal node per iteration, whole-list passes only.

        A node is the x-rank interval ``[lo, hi)``; *ranks* lists it in
        y-order (ties by x-rank -- the stable partition of the root's
        order, which is what bottom-up merging produced).  Popping left
        before right numbers the nodes in preorder, so the children of
        node ``k`` are ``k + 1`` and ``k + (hi - lo) // 2`` and need no
        pointers.  Size-1 children are never pushed: a leaf is its rank.
        """
        ys, cols, cascade = self._ys, self._cols, self.cascade
        n = len(ys)
        if n < 2:  # no internal node: the column is the root's y-array
            self._node_ys.append(ys)
            return
        stack = [(0, n, sorted(range(n), key=ys.__getitem__))]
        while stack:
            lo, hi, ranks = stack.pop()
            mid = lo + (hi - lo) // 2
            for column in cols:
                self._prefix.append(
                    list(accumulate(map(column.__getitem__, ranks), initial=0.0))
                )
            if not cascade or hi - lo == n:
                self._node_ys.append([ys[r] for r in ranks])
            if cascade:
                # bridge[i] = how many of the first i elements went left;
                # the right bridge is i - bridge[i]
                self._bridge.append(
                    list(accumulate([r < mid for r in ranks], initial=0))
                )
            if hi - mid > 1:
                stack.append((mid, hi, [r for r in ranks if r >= mid]))
            if mid - lo > 1:
                stack.append((lo, mid, [r for r in ranks if r < mid]))

    # -- queries ------------------------------------------------------------------

    def _y_span(self, k: int, lo: int, hi: int, ylo, yhi) -> tuple[int, int]:
        """Positions of ``[ylo, yhi]`` in the y-array of node *k*."""
        ys = self._node_ys[k] if hi - lo > 1 else self._ys[lo:hi]
        return bisect_left(ys, ylo), bisect_right(ys, yhi)

    def query(self, xlo, xhi, ylo, yhi) -> tuple[Moments, ...]:
        """Per-measure :class:`Moments` of the closed query rectangle.

        With zero measures the single returned :class:`Moments` carries
        the count only.
        """
        acc = [0.0] * len(self._cols)
        count = self._walk(xlo, xhi, ylo, yhi, acc)
        return _moments(count, acc, self._squares)

    def count(self, xlo, xhi, ylo, yhi) -> int:
        """Elements in the closed query rectangle, summing no column."""
        return self._walk(xlo, xhi, ylo, yhi, None)

    def _walk(self, xlo, xhi, ylo, yhi, acc: list[float] | None) -> int:
        """The rectangle's element count; its column sums are added to
        *acc* unless that is ``None``."""
        count = 0
        cols, prefix, cascade = self._cols, self._prefix, self.cascade
        stride = len(cols)
        summed = 0 if acc is None else stride
        hi = len(self._xs)
        if hi and xlo <= xhi and ylo <= yhi:
            # the x-interval as an x-rank interval: containment tests on
            # nodes become integer comparisons
            rlo = bisect_left(self._xs, xlo)
            rhi = bisect_right(self._xs, xhi)
            k = lo = 0
            plo = bisect_left(self._node_ys[0], ylo)
            phi = bisect_right(self._node_ys[0], yhi)
            # Walk left-first from the root, parking right siblings, so
            # canonical nodes report left to right.  Every node reached
            # overlaps [rlo, rhi) and has y-positions in [plo, phi).
            parked: list[tuple[int, int, int, int, int]] = []
            while plo < phi and rlo < rhi:
                if rlo <= lo and hi <= rhi:  # canonical node
                    count += phi - plo
                    if hi - lo == 1:  # a leaf is its x-rank
                        for j in range(summed):
                            acc[j] += cols[j][lo]
                    else:
                        base = k * stride
                        for j in range(summed):
                            sums = prefix[base + j]
                            acc[j] += sums[phi] - sums[plo]
                else:
                    half = (hi - lo) // 2
                    mid = lo + half
                    if cascade:
                        went_left = self._bridge[k]
                        lplo, lphi = went_left[plo], went_left[phi]
                        rplo, rphi = plo - lplo, phi - lphi
                    else:
                        lplo, lphi = self._y_span(k + 1, lo, mid, ylo, yhi)
                        rplo, rphi = self._y_span(k + half, mid, hi, ylo, yhi)
                    right = mid < rhi and rplo < rphi
                    if rlo < mid and lplo < lphi:
                        if right:
                            parked.append((k + half, mid, hi, rplo, rphi))
                        k, hi, plo, phi = k + 1, mid, lplo, lphi
                        continue
                    if right:
                        k, lo, plo, phi = k + half, mid, rplo, rphi
                        continue
                if not parked:
                    break
                k, lo, hi, plo, phi = parked.pop()
        if self._overlay.size:
            count = self._overlay.fold(
                count,
                [0.0] * stride if acc is None else acc,
                lambda e: xlo <= e[0] <= xhi and ylo <= e[1] <= yhi,
                self._squares,
            )
        return count


class PrefixAggregate1D:
    """Sorted array + prefix moments: divisible aggregates over one axis.

    The degenerate layered range tree when only a single continuous
    attribute is constrained (e.g. "count units with health below h").
    Build O(n log n), query O(log n).
    """

    def __init__(
        self,
        keys: Iterable[float],
        measures: Sequence[Iterable[float]] = (),
        *,
        squares: Sequence[bool] | None = None,
    ):
        keys = list(map(float, keys))
        n = len(keys)
        order = sorted(range(n), key=keys.__getitem__)
        self.keys = [keys[i] for i in order]
        self.width = len(measures)
        self._squares = _squares(squares, self.width)
        self._prefix = [
            list(accumulate(map(column.__getitem__, order), initial=0.0))
            for column in _moment_columns(measures, self._squares, n)
        ]
        self._size = n
        # delta overlay of (key, values) pairs since build
        self._overlay = _DeltaOverlay()

    @classmethod
    def from_rows(
        cls,
        keys: Sequence[float],
        values: Sequence[Sequence[float]] | None = None,
        *,
        width: int | None = None,
        squares: Sequence[bool] | None = None,
    ) -> "PrefixAggregate1D":
        """Build from keys and per-key measure tuples."""
        return cls(keys, _transpose(values, len(keys), width), squares=squares)

    def __len__(self) -> int:
        return self._size

    @property
    def overlay_size(self) -> int:
        return len(self._overlay)

    # -- incremental maintenance --------------------------------------------------

    def _entry(
        self, key: float, values: Sequence[float]
    ) -> tuple[float, tuple[float, ...]]:
        entry = (float(key), tuple(float(v) for v in values))
        if len(entry[1]) != self.width:
            raise ValueError(f"expected {self.width} measures, got {len(entry[1])}")
        return entry

    def insert(self, key: float, values: Sequence[float] = ()) -> None:
        self._overlay.insert(self._entry(key, values))
        self._size += 1

    def delete(self, key: float, values: Sequence[float] = ()) -> None:
        self._overlay.delete(self._entry(key, values))
        self._size -= 1
        if self._size < 0:
            raise ValueError("deleted more elements than the structure holds")

    # -- queries ------------------------------------------------------------------

    def query(self, lo: float, hi: float) -> tuple[Moments, ...]:
        start = bisect_left(self.keys, lo)
        stop = bisect_right(self.keys, hi)
        count = max(stop - start, 0)
        acc = [sums[stop] - sums[start] for sums in self._prefix]
        if self._overlay.size:
            count = self._overlay.fold(
                count, acc, lambda e: lo <= e[0] <= hi, self._squares
            )
        return _moments(count, acc, self._squares)

    def count(self, lo: float, hi: float) -> int:
        return self.query(lo, hi)[0].count
