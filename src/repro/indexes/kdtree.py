"""kD-tree for nearest-neighbour spatial aggregates (Section 5.3.2).

"An efficient way to find the nearest unit is to use a kD-tree [4]."
The tree is built by median splitting, alternating axes.  The bulk
build is static (the paper's per-tick-rebuild default), but the tree
also supports incremental maintenance for the low-update-rate regime:
:meth:`insert` attaches standard dynamic leaves, :meth:`delete`
tombstones nodes in place (tombstoned points still partition space, so
search stays correct), and :meth:`replace_item` swaps a node's payload
when only non-spatial attributes changed.  Heavy churn degrades balance
and leaves dead weight.  The indexed evaluator does not call these: it
rebuilds every tick.

The tree additionally bounds its own depth: each insert tracks the
attach depth, and once a leaf would land deeper than ``4 * log2(n)``
the tree forces the full-rebuild fallback on itself -- the live points
(tombstones dropped) are re-bulk-built by median splitting.  Without
this, *adversarial* insert orders (sorted coordinates, the classic
sequential-churn pattern) chain leaves into an O(n)-deep path that the
mutation-count budget alone does not catch when the tree is mostly
inserts: every k-NN probe would then degrade to a linear walk.  A
rebuild relocates nodes but cannot change any answer -- the candidate
set is identical and ties break on the caller's ``tie_key``, never on
tree shape.

Queries:

* :meth:`nearest` -- the stored item minimising squared Euclidean
  distance to a probe point, with an optional exclusion key (a unit
  searching for its nearest *other* unit) and an optional predicate for
  residual filters the categorical layers above could not absorb;
* :meth:`within_radius` -- all items within a (circular) radius, used by
  area-of-effect combination (Section 5.4) when effects are circular.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

#: Leaf-attach depth budget, as a multiple of ``log2(live size)``.  A
#: balanced tree is ~1x; random insert orders hover near 2x; only
#: adversarial (sorted) insert sequences push past 4x.
_DEPTH_FACTOR = 4.0

#: Below this size a rebuild is never forced -- tiny trees are cheap to
#: search however degenerate, and log2-based budgets misbehave near 1.
_DEPTH_MIN_SIZE = 8


class _Node:
    __slots__ = ("point", "item", "axis", "left", "right", "deleted")

    def __init__(self, point, item, axis):
        self.point = point
        self.item = item
        self.axis = axis
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.deleted = False


class KDTree:
    """A 2-d (or k-d) tree over ``(point, item)`` pairs."""

    def __init__(
        self,
        points: Sequence[Sequence[float]],
        items: Sequence[object] | None = None,
        dims: int = 2,
    ):
        if items is None:
            items = list(range(len(points)))
        if len(items) != len(points):
            raise ValueError("points and items must have equal length")
        self.dims = dims
        self._size = len(points)
        #: Forced full rebuilds triggered by the insert depth bound.
        self.depth_rebuilds = 0
        entries = [(tuple(p), item) for p, item in zip(points, items)]
        self._root = self._build(entries, depth=0)

    def __len__(self) -> int:
        return self._size

    def _build(self, entries: list, depth: int) -> _Node | None:
        if not entries:
            return None
        axis = depth % self.dims
        entries.sort(key=lambda pi: pi[0][axis])
        mid = len(entries) // 2
        point, item = entries[mid]
        node = _Node(point, item, axis)
        node.left = self._build(entries[:mid], depth + 1)
        node.right = self._build(entries[mid + 1 :], depth + 1)
        return node

    # -- incremental maintenance --------------------------------------------------

    def insert(self, point: Sequence[float], item: object) -> None:
        """Attach ``(point, item)`` as a new leaf (standard dynamic insert).

        No incremental rebalancing -- but the attach depth is tracked,
        and a leaf that would land beyond ``4 * log2(live size)`` forces
        a full rebuild instead, so adversarial insert orders (sorted
        coordinates) cannot chain the tree into an O(n)-deep path that
        degrades every k-NN probe to a linear walk.
        """
        point = tuple(point)
        self._size += 1
        if self._root is None:
            self._root = _Node(point, item, 0)
            return
        node = self._root
        depth = 0
        while True:
            depth += 1
            if point[node.axis] - node.point[node.axis] <= 0:
                if node.left is None:
                    node.left = _Node(point, item, depth % self.dims)
                    break
                node = node.left
            else:
                if node.right is None:
                    node.right = _Node(point, item, depth % self.dims)
                    break
                node = node.right
        if self._size >= _DEPTH_MIN_SIZE and depth > _DEPTH_FACTOR * math.log2(
            self._size
        ):
            self._rebuild()

    def _rebuild(self) -> None:
        """Bulk-rebuild from the live entries (tombstones dropped).

        The standard full-rebuild fallback the maintenance policies
        already rely on, applied by the tree to itself when the depth
        bound trips.  Every query answer is preserved: the live
        ``(point, item)`` set is unchanged, and no query result depends
        on node placement.
        """
        entries: list = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            if not node.deleted:
                entries.append((node.point, node.item))
            stack.append(node.left)
            stack.append(node.right)
        self._size = len(entries)
        self._root = self._build(entries, depth=0)
        self.depth_rebuilds += 1

    def delete(
        self, point: Sequence[float], match: Callable[[object], bool]
    ) -> bool:
        """Tombstone the node at *point* whose item satisfies *match*.

        The node keeps partitioning space for descent but is skipped as
        a query candidate.  Returns whether a live matching node was
        found.  Both sides of a split must be searched on coordinate
        ties, since the bulk build puts equal coordinates on either
        side of the median.
        """
        found = self._find(self._root, tuple(point), match)
        if found is None:
            return False
        found.deleted = True
        found.item = None  # drop the payload reference eagerly
        self._size -= 1
        return True

    def replace_item(
        self, point: Sequence[float], match: Callable[[object], bool], item: object
    ) -> bool:
        """Swap the payload of the live node at *point* matching *match*.

        The O(log n) path for updates that leave coordinates unchanged
        (a unit that stood still but lost health): no tombstone, no new
        leaf, just the fresh row object in place of the stale one.
        """
        found = self._find(self._root, tuple(point), match)
        if found is None:
            return False
        found.item = item
        return True

    def _find(self, node: _Node | None, point, match) -> _Node | None:
        # iterative (see _nearest)
        stack = [node]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            if node.point == point and not node.deleted and match(node.item):
                return node
            delta = point[node.axis] - node.point[node.axis]
            if delta <= 0:
                if delta == 0:
                    stack.append(node.right)
                stack.append(node.left)
            else:
                stack.append(node.right)
        return None

    # -- nearest neighbour -------------------------------------------------------

    def nearest(
        self,
        probe: Sequence[float],
        *,
        exclude: Callable[[object], bool] | None = None,
        max_dist_sq: float = float("inf"),
        tie_key: Callable[[object], object] | None = None,
    ) -> tuple[object, float] | None:
        """``(item, squared-distance)`` of the closest accepted point.

        *exclude* rejects candidate items (e.g. the probing unit itself);
        *max_dist_sq* bounds the search (visibility range); *tie_key*
        breaks equal-distance ties toward the smallest key, matching the
        naive evaluator's argmin tie-break.  Returns ``None`` when no
        accepted point lies within the bound.
        """
        probe = tuple(probe)
        best: list = [None, max_dist_sq, None]  # item, dist², tie key
        self._nearest(self._root, probe, exclude, tie_key, best)
        if best[0] is None:
            return None
        return best[0], best[1]

    def _nearest(self, node: _Node | None, probe, exclude, tie_key, best) -> None:
        # iterative traversal with an explicit stack: dynamic inserts can
        # chain into deep unbalanced paths, which must degrade search
        # time only -- never blow the interpreter's recursion limit.
        # Each stack entry carries the split-distance bound under which
        # the subtree was deferred; re-checked at pop so pruning matches
        # the recursive near-first formulation.
        stack: list = [(node, 0.0)]
        while stack:
            node, bound = stack.pop()
            if node is None or bound > best[1]:
                continue
            # explicit products: bit-identical to the scan evaluator's
            # (e.x - cx)*(e.x - cx) + (e.y - cy)*(e.y - cy)
            dist_sq = 0.0
            for a, b in zip(node.point, probe):
                d = a - b
                dist_sq += d * d
            if (
                not node.deleted
                and dist_sq <= best[1]
                and (exclude is None or not exclude(node.item))
            ):
                better = dist_sq < best[1] or best[0] is None
                if not better and tie_key is not None and dist_sq == best[1]:
                    better = tie_key(node.item) < best[2]
                if better:
                    best[0], best[1] = node.item, dist_sq
                    best[2] = tie_key(node.item) if tie_key is not None else None
            axis = node.axis
            delta = probe[axis] - node.point[axis]
            near, far = (
                (node.left, node.right) if delta <= 0 else (node.right, node.left)
            )
            stack.append((far, delta * delta))
            stack.append((near, 0.0))  # popped first: near side explored fully

    # -- radius search -------------------------------------------------------------

    def within_radius(
        self, probe: Sequence[float], radius: float
    ) -> list[tuple[object, float]]:
        """All ``(item, squared-distance)`` within *radius* of *probe*."""
        probe = tuple(probe)
        out: list[tuple[object, float]] = []
        self._within(self._root, probe, radius, radius * radius, out)
        return out

    def _within(self, node: _Node | None, probe, radius, radius_sq, out) -> None:
        # iterative (see _nearest); pushes right-then-left so results
        # arrive in the same depth-first preorder as the old recursion
        stack = [node]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            dist_sq = 0.0
            for a, b in zip(node.point, probe):
                d = a - b
                dist_sq += d * d
            if dist_sq <= radius_sq and not node.deleted:
                out.append((node.item, dist_sq))
            delta = probe[node.axis] - node.point[node.axis]
            if -delta <= radius:
                stack.append(node.right)
            if delta <= radius:
                stack.append(node.left)


def build_kdtree_from_rows(
    rows: Iterable[dict], x: str = "posx", y: str = "posy"
) -> KDTree:
    """Build a 2-d tree whose items are the row dicts themselves."""
    rows = list(rows)
    return KDTree([(r[x], r[y]) for r in rows], rows)
