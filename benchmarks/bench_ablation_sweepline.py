"""Ablation A-SWEEP -- min-in-range strategies (Section 5.3.1).

min/max are not divisible, so Figure 8 does not apply.  The paper's
options: (a) naive O(n) scan per unit; (b) range-tree *enumeration*
then min -- O(log n + k) per probe, which degrades to O(n²) total when
armies cluster (k ≈ n); (c) the Figure-9 sweep, O((n+m) log n) total.

Workload: the battle's "find the weakest unit in range" on clustered
positions with constant range extents.  Expected shape:
sweep < enumerate < naive, with enumerate hurt most by clustering.

Option (b)'s index, :class:`LayeredRangeTree2D`, lives here: the engine
never enumerates a range, so only this ablation needs it.
"""

import random
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.util import emit, fmt_table
from repro.indexes.sweepline import boxes_around, sweep_arg_minmax

N = 3000
RX = RY = 30


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(7)
    xy, health, keys = [], [], []
    for key in range(N):
        cx, cy = rng.choice([(0, 0), (60, 40)])  # two clustered armies
        xy.append((cx + rng.gauss(0, 20), cy + rng.gauss(0, 20)))
        health.append(rng.randrange(1, 30))
        keys.append(key)
    return xy, health, keys


@dataclass(slots=True)
class _Node:
    """The points of x-ranks ``[lo, hi)``, sorted by y; an inner node's
    ``bridge[i]`` counts its left child's points among the first ``i``."""

    lo: int
    hi: int
    ys: list
    items: list
    bridge: list | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None


class LayeredRangeTree2D:
    """2-d layered range tree with fractional cascading [Chazelle &
    Guibas]: the y-range is located by one binary search at the root,
    then carried to each child through the bridges, so enumerating a
    box costs O(log n + k)."""

    def __init__(self, points, items):
        pairs = sorted(zip(points, items, strict=True), key=lambda p: p[0][0])
        self._xs = [float(x) for (x, _), _ in pairs]
        by_y = sorted(
            ((float(y), rank, item) for rank, ((_, y), item) in enumerate(pairs)),
            key=lambda e: e[0],
        )
        self._root = self._build(by_y, 0, len(pairs)) if pairs else None

    def _build(self, by_y, lo, hi):
        node = _Node(lo, hi, [e[0] for e in by_y], [e[2] for e in by_y])
        if hi - lo > 1:
            mid = lo + (hi - lo) // 2
            node.bridge = list(accumulate((e[1] < mid for e in by_y), initial=0))
            node.left = self._build([e for e in by_y if e[1] < mid], lo, mid)
            node.right = self._build([e for e in by_y if e[1] >= mid], mid, hi)
        return node

    def enumerate(self, xlo, xhi, ylo, yhi):
        """The items of every point in the closed box."""
        root, xs, out = self._root, self._xs, []
        if root is None or xlo > xhi:
            return out
        stack = [(root, bisect_left(root.ys, ylo), bisect_right(root.ys, yhi))]
        while stack:
            node, plo, phi = stack.pop()
            if plo >= phi or xs[node.hi - 1] < xlo or xs[node.lo] > xhi:
                continue
            if xlo <= xs[node.lo] and xs[node.hi - 1] <= xhi:
                out += node.items[plo:phi]
            elif node.bridge is not None:
                b = node.bridge
                stack.append((node.right, plo - b[plo], phi - b[phi]))
                stack.append((node.left, b[plo], b[phi]))
        return out


coord = st.integers(-50, 50)
box_side = st.tuples(coord, coord).map(sorted)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(coord, coord), max_size=60), box_side, box_side)
def test_range_tree_matches_bruteforce(points, bx, by):
    tree = LayeredRangeTree2D(points, range(len(points)))
    assert sorted(tree.enumerate(*bx, *by)) == [
        i for i, (x, y) in enumerate(points)
        if bx[0] <= x <= bx[1] and by[0] <= y <= by[1]
    ]


def test_range_tree_edges():
    assert LayeredRangeTree2D([], []).enumerate(-1, 1, -1, 1) == []
    tree = LayeredRangeTree2D([(0, 0), (5, 5)], ["a", "b"])
    assert tree.enumerate(4, 6, 4, 6) == ["b"]
    assert tree.enumerate(1, -1, 0, 0) == []  # inverted box
    with pytest.raises(ValueError):
        LayeredRangeTree2D([(0, 0)], [1, 2])


def naive_minima(xy, health, keys):
    out = []
    for px, py in xy:
        best = None
        for (x, y), h, k in zip(xy, health, keys):
            if abs(x - px) <= RX and abs(y - py) <= RY:
                if best is None or (h, k) < best:
                    best = (h, k)
        out.append(best)
    return out


def enumerate_minima(xy, health, keys):
    tree = LayeredRangeTree2D(xy, list(zip(health, keys)))
    out = []
    for px, py in xy:
        hits = tree.enumerate(px - RX, px + RX, py - RY, py + RY)
        out.append(min(hits) if hits else None)
    return out


def sweep_minima(xy, health, keys):
    results = sweep_arg_minmax(
        xy, health, keys, boxes_around(xy, RX, RY), "min"
    )
    return [None if r is None else (r[0], r[1]) for r in results]


def test_min_in_range_strategies(benchmark, capsys, workload):
    xy, health, keys = workload

    t0 = time.perf_counter()
    by_sweep = sweep_minima(xy, health, keys)
    t_sweep = time.perf_counter() - t0

    t0 = time.perf_counter()
    by_enum = enumerate_minima(xy, health, keys)
    t_enum = time.perf_counter() - t0

    # naive over a subsample, extrapolated quadratically (full naive
    # would dominate the suite's runtime without adding information)
    sample = N // 4
    t0 = time.perf_counter()
    naive_minima(xy[:sample], health[:sample], keys[:sample])
    t_naive = (time.perf_counter() - t0) * (N / sample) ** 2

    assert by_sweep == by_enum  # strategies agree exactly

    emit(capsys, f"A-SWEEP: weakest-in-range over {N} clustered units",
         fmt_table(
             ["strategy", "seconds", "vs sweep"],
             [["sweep-line (Fig 9)", t_sweep, "1.0x"],
              ["range tree + min over k", t_enum,
               f"{t_enum / t_sweep:.1f}x"],
              ["naive scans (extrapolated)", t_naive,
               f"{t_naive / t_sweep:.1f}x"]],
         ))

    assert t_sweep < t_enum, "clustering must hurt enumeration"
    assert t_sweep < t_naive

    benchmark.pedantic(
        lambda: sweep_minima(xy, health, keys), rounds=3, iterations=1
    )


def test_enumerate_reference(benchmark, workload):
    xy, health, keys = workload
    benchmark.pedantic(
        lambda: enumerate_minima(xy, health, keys), rounds=2, iterations=1
    )
