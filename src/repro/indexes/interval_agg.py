"""Segment-tree interval aggregate index.

The sweep-line technique of Section 5.3.1 (Figure 9) needs "a binary
tree ordered on the remaining axis x" whose interior nodes carry the
aggregate of their leaf descendants, supporting point updates
(a unit entering/leaving the sweep window) and range queries (the
aggregate within a probing unit's x-range) in O(log n) each.

:class:`IntervalAggregateIndex` is that structure: a static, array-based
segment tree over a fixed number of slots, parameterised by an
associative operation with a neutral element.  Min/max trees initialise
leaves to +inf/-inf as in Figure 9; clearing a slot restores the neutral
value ("when a unit moves out of the range, replace the actual value
with the default").
"""

from __future__ import annotations

from typing import Callable

_OPS: dict[str, tuple[Callable[[float, float], float], float]] = {
    "min": (min, float("inf")),
    "max": (max, float("-inf")),
    "sum": (lambda a, b: a + b, 0.0),
}


class IntervalAggregateIndex:
    """Point-updatable aggregate over a fixed array of slots."""

    __slots__ = ("op", "neutral", "size", "_base", "_tree", "kind")

    def __init__(self, size: int, kind: str = "min", neutral: object = None):
        if kind not in _OPS:
            raise ValueError(f"unsupported aggregate kind {kind!r}")
        self.kind = kind
        self.op, self.neutral = _OPS[kind]
        if neutral is not None:
            # Custom neutral element, e.g. ``(inf, inf, None)`` tuples for
            # argmin sweeps that need the identity of the extreme unit.
            self.neutral = neutral
        self.size = max(size, 1)
        base = 1
        while base < self.size:
            base *= 2
        self._base = base
        self._tree = [self.neutral] * (2 * base)

    # -- updates --------------------------------------------------------------

    def set(self, slot: int, value: float) -> None:
        """Set *slot* to *value* and percolate the change upward.

        Percolation stops at the first ancestor whose recomputed value
        is the object it already holds: nothing above it can change.
        Identity, not ``==`` -- min/max return one of their arguments, so
        an unchanged winner is the same object, while ``==`` would also
        stop on ``0.0`` replacing ``-0.0``.
        """
        if not 0 <= slot < self.size:
            raise IndexError(f"slot {slot} out of range [0, {self.size})")
        i = self._base + slot
        tree = self._tree
        tree[i] = value
        op = self.op
        i //= 2
        while i:
            merged = op(tree[2 * i], tree[2 * i + 1])
            if merged is tree[i]:
                break
            tree[i] = merged
            i //= 2

    def clear(self, slot: int) -> None:
        """Restore *slot* to the neutral value (unit leaves the sweep)."""
        if self.get(slot) is not self.neutral:
            self.set(slot, self.neutral)

    def get(self, slot: int) -> float:
        if not 0 <= slot < self.size:
            raise IndexError(f"slot {slot} out of range [0, {self.size})")
        return self._tree[self._base + slot]

    # -- queries ---------------------------------------------------------------

    def query(self, lo: int, hi: int) -> float:
        """Aggregate of slots ``lo..hi`` inclusive; neutral if empty."""
        if lo > hi:
            return self.neutral
        lo = max(lo, 0)
        hi = min(hi, self.size - 1)
        if lo > hi:
            return self.neutral
        result = self.neutral
        op = self.op
        tree = self._tree
        left = self._base + lo
        right = self._base + hi + 1
        while left < right:
            if left & 1:
                result = op(result, tree[left])
                left += 1
            if right & 1:
                right -= 1
                result = op(result, tree[right])
            left //= 2
            right //= 2
        return result

    def total(self) -> float:
        """Aggregate of every slot."""
        return self._tree[1]
