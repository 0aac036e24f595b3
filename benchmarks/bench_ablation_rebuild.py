"""Ablation A-REBUILD -- per-tick index rebuild cost (Section 5.3).

The paper rebuilds every index from scratch each tick ("it is usually
the case that the number of index probes in each clock tick is
comparable to the number of entries in the index ... it may even be
more efficient to do this than to maintain a dynamic index") and claims
"the overhead of index construction is quite low".

We measure, at a fixed unit count, (a) the pure index-construction cost
of one tick (build all aggregate indexes, probe nothing), (b) the full
indexed tick, and (c) the naive tick.  Expected shape: build cost is a
minor fraction of the indexed tick, and the indexed tick including all
builds still beats naive by a wide margin.
"""

import time

from benchmarks.util import emit, fmt_table, tick_seconds
from repro.engine.evaluator import IndexedEvaluator
from repro.game.battle import BattleSimulation

N = 400


def build_all_indexes(sim: BattleSimulation) -> float:
    """Seconds to construct every per-tick index for the current env."""
    evaluator: IndexedEvaluator = sim.engine.agg_eval
    start = time.perf_counter()
    evaluator.begin_tick(sim.engine.env)  # "rebuild": drops every index
    evaluator.prepare(sim.registry.aggregates)
    return time.perf_counter() - start


def test_rebuild_overhead(benchmark, capsys):
    sim = BattleSimulation(N, mode="indexed", seed=2)
    sim.tick()  # warm: compile shapes

    build = build_all_indexes(sim)
    indexed_tick = tick_seconds(N, "indexed", ticks=2, seed=2)
    naive_tick = tick_seconds(N, "naive", ticks=1, seed=2)

    emit(capsys, f"A-REBUILD: cost split at {N} units",
         fmt_table(
             ["quantity", "seconds", "share of indexed tick"],
             [["index build (all aggregates)", build,
               f"{100 * build / indexed_tick:.0f}%"],
              ["full indexed tick", indexed_tick, "100%"],
              ["naive tick", naive_tick,
               f"{naive_tick / indexed_tick:.1f}x indexed"]],
         ))

    assert build < indexed_tick, "build must be a fraction of the tick"
    assert indexed_tick < naive_tick

    sim2 = BattleSimulation(N, mode="indexed", seed=2)
    sim2.tick()
    benchmark.pedantic(lambda: build_all_indexes(sim2), rounds=3,
                       iterations=1)
