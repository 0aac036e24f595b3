"""Executable reference for the divisible-aggregate range tree.

The node-object construction (``_ANode`` recursion: merge, per-node
prefix fill, value-searched bridges), the recursive ``descend`` /
``report`` query and the delta overlay that ``repro.indexes.agg_range_tree`` shipped before it
went array-built, moved here verbatim.  ``test_agg_tree_flat.py`` holds
the flat tree to these answers bit for bit; nothing under ``src/``
imports this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from repro.indexes.divisible import Moments


class _DeltaOverlay:
    """Pending insert/delete entries with exact cancellation.

    Shared by the 1-d and 2-d structures.  An entry is a tuple ending
    in its measure-value tuple, mapped to a signed multiplicity (inserts
    minus deletes) so cancellation is O(1) -- oscillating elements
    leave no residue and high-churn ticks stay linear in the delta.
    ``fold`` applies the in-range entries to running (count, sums,
    sumsqs) accumulators -- exact because moments form a group.
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

    def fold(self, count, sums, sumsqs, width, contains) -> int:
        for entry, multiplicity in self.entries.items():
            if contains(entry):
                count += multiplicity
                vals = entry[-1]
                for m in range(width):
                    v = vals[m]
                    sums[m] += multiplicity * v
                    sumsqs[m] += multiplicity * v * v
        return count


class _ANode:
    __slots__ = (
        "min_x", "max_x", "left", "right", "ys",
        "pcount", "psum", "psumsq", "bridge_left", "bridge_right",
    )

    def __init__(self):
        self.min_x = 0.0
        self.max_x = 0.0
        self.left: "_ANode | None" = None
        self.right: "_ANode | None" = None
        self.ys: list[float] = []
        # prefix arrays: pcount[i] = #elements among first i; psum[m][i],
        # psumsq[m][i] = Σ / Σ² of measure m among first i elements.
        self.pcount: list[int] = []
        self.psum: list[list[float]] = []
        self.psumsq: list[list[float]] = []
        self.bridge_left: list[int] | None = None
        self.bridge_right: list[int] | None = None


class ReferenceAggTree2D:
    """2-d range tree answering divisible aggregates in O(log n).

    Parameters
    ----------
    points:
        ``(x, y)`` pairs.
    values:
        Per point, a sequence of measure values (all measures share the
        tree).  Pass ``[()] * n`` (or ``values=None``) for pure counting.
    cascade:
        Enable fractional cascading (bridge pointers); disable for the
        A-FC ablation benchmark.
    """

    def __init__(
        self,
        points: Sequence[tuple[float, float]],
        values: Sequence[Sequence[float]] | None = None,
        *,
        cascade: bool = True,
        width: int | None = None,
    ):
        n = len(points)
        if values is None:
            values = [()] * n
        if len(values) != n:
            raise ValueError("points and values must have equal length")
        self.cascade = cascade
        self.width = width if width is not None else (len(values[0]) if n else 0)
        self._size = n
        entries = sorted(
            (
                (float(x), float(y), tuple(float(v) for v in vals))
                for (x, y), vals in zip(points, values)
            ),
            key=lambda e: e[0],
        )
        self._root = self._build(entries) if entries else None
        # delta overlay of (x, y, values) triples since build
        self._overlay = _DeltaOverlay()

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

    def _build(self, entries: list) -> _ANode:
        node, _ = self._build_rec(entries)
        return node

    def _build_rec(self, entries: list) -> tuple[_ANode, list]:
        """Build a subtree; also return its y-sorted (y, values) entries
        so parents merge in O(len) instead of re-sorting."""
        node = _ANode()
        node.min_x = entries[0][0]
        node.max_x = entries[-1][0]
        if len(entries) == 1:
            merged = [(entries[0][1], entries[0][2])]
        else:
            mid = len(entries) // 2
            node.left, left_merged = self._build_rec(entries[:mid])
            node.right, right_merged = self._build_rec(entries[mid:])
            merged = self._merge(left_merged, right_merged)
        self._fill_prefixes(node, merged)
        if self.cascade and node.left is not None:
            node.bridge_left = self._bridges(node.ys, node.left.ys)
            node.bridge_right = self._bridges(node.ys, node.right.ys)
        return node, merged

    @staticmethod
    def _merge(left: list, right: list) -> list:
        out = []
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i][0] <= right[j][0]:
                out.append(left[i]); i += 1
            else:
                out.append(right[j]); j += 1
        out.extend(left[i:])
        out.extend(right[j:])
        return out

    def _fill_prefixes(self, node: _ANode, merged: list) -> None:
        width = self.width
        node.ys = [y for y, _ in merged]
        n = len(merged)
        node.pcount = [0] * (n + 1)
        node.psum = [[0.0] * (n + 1) for _ in range(width)]
        node.psumsq = [[0.0] * (n + 1) for _ in range(width)]
        for i, (_, vals) in enumerate(merged):
            node.pcount[i + 1] = node.pcount[i] + 1
            for m in range(width):
                v = vals[m]
                node.psum[m][i + 1] = node.psum[m][i] + v
                node.psumsq[m][i + 1] = node.psumsq[m][i] + v * v

    @staticmethod
    def _bridges(parent_ys: list[float], child_ys: list[float]) -> list[int]:
        bridges = [0] * (len(parent_ys) + 1)
        j = 0
        for i, y in enumerate(parent_ys):
            while j < len(child_ys) and child_ys[j] < y:
                j += 1
            bridges[i] = j
        bridges[len(parent_ys)] = len(child_ys)
        return bridges

    # -- queries ------------------------------------------------------------------

    def query(self, xlo, xhi, ylo, yhi) -> tuple[Moments, ...]:
        """Per-measure :class:`Moments` of the closed query rectangle.

        With zero measures the single returned :class:`Moments` carries
        the count only.
        """
        counts = 0
        sums = [0.0] * self.width
        sumsqs = [0.0] * self.width

        def report(node: _ANode, plo: int, phi: int) -> None:
            nonlocal counts
            counts += node.pcount[phi] - node.pcount[plo]
            for m in range(self.width):
                sums[m] += node.psum[m][phi] - node.psum[m][plo]
                sumsqs[m] += node.psumsq[m][phi] - node.psumsq[m][plo]

        self._visit(xlo, xhi, ylo, yhi, report)
        counts = self._overlay.fold(
            counts, sums, sumsqs, self.width,
            lambda e: xlo <= e[0] <= xhi and ylo <= e[1] <= yhi,
        )
        if self.width == 0:
            return (Moments(counts, 0.0, 0.0),)
        return tuple(
            Moments(counts, sums[m], sumsqs[m]) for m in range(self.width)
        )

    def count(self, xlo, xhi, ylo, yhi) -> int:
        return self.query(xlo, xhi, ylo, yhi)[0].count

    def _visit(self, xlo, xhi, ylo, yhi, report) -> None:
        root = self._root
        if root is None or xlo > xhi or ylo > yhi:
            return
        plo = bisect_left(root.ys, ylo)
        phi = bisect_right(root.ys, yhi)

        def descend(node: _ANode, plo: int, phi: int) -> None:
            if node.max_x < xlo or node.min_x > xhi or plo >= phi:
                return
            if xlo <= node.min_x and node.max_x <= xhi:
                report(node, plo, phi)
                return
            if node.left is None:
                return
            if self.cascade:
                descend(node.left, node.bridge_left[plo], node.bridge_left[phi])
                descend(node.right, node.bridge_right[plo], node.bridge_right[phi])
            else:
                descend(node.left,
                        bisect_left(node.left.ys, ylo),
                        bisect_right(node.left.ys, yhi))
                descend(node.right,
                        bisect_left(node.right.ys, ylo),
                        bisect_right(node.right.ys, yhi))

        descend(root, plo, phi)

