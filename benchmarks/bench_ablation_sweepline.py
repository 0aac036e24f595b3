"""Ablation A-SWEEP -- min-in-range strategies (Section 5.3.1).

min/max are not divisible, so Figure 8 does not apply.  The paper's
options: (a) naive O(n) scan per unit; (b) range-tree *enumeration*
then min -- O(log n + k) per probe, which degrades to O(n²) total when
armies cluster (k ≈ n); (c) the Figure-9 sweep, O((n+m) log n) total.

Workload: the battle's "find the weakest unit in range" on clustered
positions with constant range extents.  Expected shape:
sweep < enumerate < naive, with enumerate hurt most by clustering.
"""

import random
import time

import pytest

from benchmarks.util import emit, fmt_table
from repro.indexes.range_tree import LayeredRangeTree2D
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
