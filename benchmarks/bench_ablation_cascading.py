"""Ablation A-FC -- fractional cascading on/off (Section 5.3.1).

The paper claims cascading removes one log factor from layered-range-
tree probes (O(log^d) → O(log^{d-1})).  We build Figure-8 aggregate
trees over clustered battle positions and fire the battle's own count
queries with cascading enabled and disabled.  Expected shape: cascading
probes are faster (the gap widens with n); results are identical.
"""

import random
import time

import pytest

from benchmarks.util import emit, fmt_table
from repro.indexes.agg_range_tree import AggRangeTree2D

N_POINTS = 4000
N_PROBES = 4000
RADIUS = 25


def clustered_points(n, seed=0):
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        cx, cy = rng.choice([(100, 100), (150, 130), (300, 280)])
        points.append((cx + rng.gauss(0, 18), cy + rng.gauss(0, 18)))
    return points


def probe_all(tree, probes):
    total = 0
    for x, y in probes:
        moments, = tree.query(x - RADIUS, x + RADIUS, y - RADIUS, y + RADIUS)
        total += moments.count
    return total


@pytest.fixture(scope="module")
def workload():
    points = clustered_points(N_POINTS)
    probes = clustered_points(N_PROBES, seed=1)
    return points, probes


def test_cascading_probe_speed(benchmark, capsys, workload):
    points, probes = workload
    on = AggRangeTree2D.from_rows(points, cascade=True)
    off = AggRangeTree2D.from_rows(points, cascade=False)

    t0 = time.perf_counter()
    count_on = probe_all(on, probes)
    t_on = time.perf_counter() - t0
    t0 = time.perf_counter()
    count_off = probe_all(off, probes)
    t_off = time.perf_counter() - t0
    assert count_on == count_off  # ablation must not change answers

    emit(capsys, "A-FC: probe time, fractional cascading on vs off",
         fmt_table(["variant", "seconds", "speedup"],
                   [["cascade on", t_on, f"{t_off / t_on:.2f}x"],
                    ["cascade off", t_off, "1.00x"]]))
    assert t_on < t_off, "cascading should beat repeated binary searches"

    benchmark.pedantic(lambda: probe_all(on, probes), rounds=3, iterations=1)


def test_no_cascade_probe_reference(benchmark, workload):
    points, probes = workload
    off = AggRangeTree2D.from_rows(points, cascade=False)
    benchmark.pedantic(lambda: probe_all(off, probes), rounds=3, iterations=1)


def test_build_cost_comparable(benchmark, workload, capsys):
    points, _ = workload

    t0 = time.perf_counter()
    AggRangeTree2D.from_rows(points, cascade=True)
    t_on = time.perf_counter() - t0
    t0 = time.perf_counter()
    AggRangeTree2D.from_rows(points, cascade=False)
    t_off = time.perf_counter() - t0
    emit(capsys, "A-FC: build time with/without bridges",
         fmt_table(["variant", "seconds"],
                   [["cascade on", t_on], ["cascade off", t_off]]))
    # bridges add linear work; build should stay within a small factor
    assert t_on < 4 * t_off

    benchmark.pedantic(
        lambda: AggRangeTree2D.from_rows(points, cascade=True), rounds=3, iterations=1
    )
