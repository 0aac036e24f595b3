"""Divisible aggregates (Definition 5.1) and moment accumulators.

An aggregate ``agg`` is *divisible* when ``agg(A \\ B)`` can be computed
from ``agg(A)`` and ``agg(B)`` for ``B ⊆ A`` -- sum, count, and all the
statistical moments qualify; min and max do not.  Divisible aggregates
are what make the prefix-aggregate range tree of Figure 8 possible: the
aggregate of any range ``[l, r]`` is ``f(prefix(r), prefix(l-1))``.

The battle simulation needs count, sum, avg (centroids), and stddev
(the knights' close-ranks density check), all of which derive from the
first two moments.  :class:`Moments` carries ``(count, Σv, Σv²)`` per
measure and supports the group operations (add element, merge, subtract)
required by Definition 5.1.  Only var and stddev read ``Σv²``: the range
structures keep its prefix only for measures some reader finalizes that
way, and report ``total_sq`` as NaN for the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

#: Aggregate names computable from :class:`Moments`.
MOMENT_AGGREGATES = frozenset({"count", "sum", "avg", "var", "stddev"})


@dataclass
class Moments:
    """Zeroth/first/second moments of a multiset of numbers.

    Forms a commutative group under :meth:`merge` / :meth:`subtract`
    (inverses exist because all three components are sums), which is
    exactly the divisibility property of Definition 5.1.
    """

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.total_sq += value * value

    def remove(self, value: float) -> None:
        """Inverse of :meth:`add` -- the element-wise divisibility op."""
        self.count -= 1
        self.total -= value
        self.total_sq -= value * value

    def merge(self, other: "Moments") -> "Moments":
        return Moments(
            self.count + other.count,
            self.total + other.total,
            self.total_sq + other.total_sq,
        )

    def subtract(self, other: "Moments") -> "Moments":
        """``self \\ other`` assuming *other* is a sub-multiset of self."""
        return Moments(
            self.count - other.count,
            self.total - other.total,
            self.total_sq - other.total_sq,
        )

    def copy(self) -> "Moments":
        return Moments(self.count, self.total, self.total_sq)

    # -- finalizers -----------------------------------------------------------

    def sum(self) -> float:
        return self.total

    def avg(self) -> float | None:
        return self.total / self.count if self.count else None

    def var(self) -> float | None:
        if not self.count:
            return None
        mean = self.total / self.count
        # numerical floor: catastrophic cancellation can dip just below 0
        return max(self.total_sq / self.count - mean * mean, 0.0)

    def stddev(self) -> float | None:
        variance = self.var()
        return math.sqrt(variance) if variance is not None else None

    def finalize(self, agg: str) -> float | int | None:
        if agg == "count":
            return self.count
        if agg == "sum":
            return self.total if self.count else 0
        if agg == "avg":
            return self.avg()
        if agg == "var":
            return self.var()
        if agg == "stddev":
            return self.stddev()
        raise ValueError(f"{agg!r} is not a moment aggregate")


class MomentVector:
    """Moments of several measures of the same row set, kept in lockstep.

    The paper (Section 5.3.1) notes that a tuple of divisible aggregates
    over the same selection -- e.g. a centroid's ``(avg x, avg y)`` --
    shares one index by storing aggregate *tuples* at the leaves.  A
    ``MomentVector`` is that tuple: one :class:`Moments` per measure plus
    a shared row count.
    """

    __slots__ = ("moments",)

    def __init__(self, width: int):
        self.moments = tuple(Moments() for _ in range(width))

    @property
    def width(self) -> int:
        return len(self.moments)

    def add(self, values: Sequence[float]) -> None:
        for moment, value in zip(self.moments, values):
            moment.add(value)

    def merge(self, other: "MomentVector") -> "MomentVector":
        out = MomentVector(self.width)
        out.moments = tuple(
            a.merge(b) for a, b in zip(self.moments, other.moments)
        )
        return out

    def subtract(self, other: "MomentVector") -> "MomentVector":
        out = MomentVector(self.width)
        out.moments = tuple(
            a.subtract(b) for a, b in zip(self.moments, other.moments)
        )
        return out

    def copy(self) -> "MomentVector":
        out = MomentVector(self.width)
        out.moments = tuple(m.copy() for m in self.moments)
        return out


def is_divisible(agg: str) -> bool:
    """Whether *agg* is divisible per Definition 5.1.

    ``argmin``/``argmax``/``min``/``max`` are the paper's examples of
    non-divisible aggregates (they need the sweep-line technique or a
    spatial index instead).
    """
    return agg in MOMENT_AGGREGATES


#: Type of a measure extractor: row -> numeric measure value.
MeasureFn = Callable[[dict], float]
