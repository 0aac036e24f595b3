"""Experiment F10 -- Figure 10: total time vs number of units.

Paper: naive vs indexed per-tick cost while the unit count grows at a
constant 1% grid density.  The naive curve is quadratic; the indexed
curve is ~n log n; "the indexed algorithm dominates the naive algorithm
even for very small numbers of Units, and it is an order of magnitude
faster by 700 Units".

We sweep a ~10-20×-scaled unit range (Python constant factor) with both
engines on identical seeds.  Expected shape, not absolute numbers:
monotone naive/indexed ratio that passes 10× within the sweep, and a
naive curve growing ~4× per unit-count doubling vs ~2-2.6× for indexed.
"""

from benchmarks.util import emit, fmt_table, tick_seconds
from repro.game.battle import BattleSimulation

NAIVE_SWEEP = (50, 100, 200, 400)
INDEXED_SWEEP = (50, 100, 200, 400, 800, 1600)


def test_figure10_scaling_table(benchmark, capsys):
    """Regenerates the Figure 10 series (scaled)."""
    results: dict[str, dict[int, float]] = {"naive": {}, "indexed": {}}

    def sweep():
        for n in NAIVE_SWEEP:
            results["naive"][n] = tick_seconds(n, "naive", ticks=1)
        for n in INDEXED_SWEEP:
            results["indexed"][n] = tick_seconds(n, "indexed", ticks=2)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for n in INDEXED_SWEEP:
        naive_t = results["naive"].get(n)
        indexed_t = results["indexed"][n]
        ratio = naive_t / indexed_t if naive_t else None
        rows.append(
            [n,
             f"{naive_t:.4f}" if naive_t else "-",
             f"{indexed_t:.4f}",
             f"{ratio:.1f}x" if ratio else "-"]
        )
    emit(capsys, "Figure 10: per-tick seconds vs units (naive | indexed)",
         fmt_table(["units", "naive", "indexed", "ratio"], rows))

    # shape assertions (the paper's qualitative claims)
    n_lo, n_hi = NAIVE_SWEEP[0], NAIVE_SWEEP[-1]
    naive_growth = results["naive"][n_hi] / results["naive"][n_lo]
    indexed_growth = results["indexed"][n_hi] / results["indexed"][n_lo]
    scale = n_hi / n_lo
    assert naive_growth > indexed_growth, "naive must grow faster"
    assert naive_growth > scale, "naive should be super-linear (quadratic)"
    # indexed stays well below quadratic growth
    assert results["indexed"][n_hi] < results["naive"][n_hi]
    ratio_at_top = results["naive"][n_hi] / results["indexed"][n_hi]
    assert ratio_at_top > 5, f"expected a wide gap, got {ratio_at_top:.1f}x"


def test_naive_tick_200_units(benchmark):
    sim = BattleSimulation(200, mode="naive", seed=1)
    sim.tick()  # warm caches
    benchmark.pedantic(sim.tick, rounds=3, iterations=1)


def test_indexed_tick_200_units(benchmark):
    sim = BattleSimulation(200, mode="indexed", seed=1)
    sim.tick()
    benchmark.pedantic(sim.tick, rounds=5, iterations=1)


def test_indexed_tick_1600_units(benchmark):
    sim = BattleSimulation(1600, mode="indexed", seed=1)
    sim.tick()
    benchmark.pedantic(sim.tick, rounds=3, iterations=1)
