"""Quickstart: run an epic battle and inspect how the engine compiled it.

Runs the paper's battle simulation (knights, archers, healers with d20
mechanics) on the indexed engine, prints per-tick statistics, and shows
EXPLAIN for the paper's Figure 3 script: each aggregate call site as the
engine compiles it, the index it probes and at what cost.

The evaluator drops its indexes every tick and rebuilds each from
scratch on its first probe, as the paper does, so the counters below
show one ``rebuild_ticks`` per tick after the first.

    python examples/quickstart.py
"""

from repro import BattleSimulation, explain_script
from repro.game.scripts import FIGURE_3_SCRIPT, build_registry


def main() -> None:
    print("== A 500-unit battle on the indexed engine ==")
    sim = BattleSimulation(500, mode="indexed", seed=7)
    print(f"grid: {sim.grid_size}x{sim.grid_size} "
          f"({len(sim.environment)} units at 1% density)")

    for _ in range(10):
        stats = sim.tick()
        print(
            f"tick {stats.tick:2d}: {stats.total_time * 1000:7.1f} ms "
            f"({stats.effect_rows} effect rows, "
            f"{stats.aoe_records} deferred auras)"
        )

    summary = sim.summary
    print(
        f"\n10 ticks in {summary.total_time:.2f}s | "
        f"damage dealt: {summary.total_damage:.0f} | "
        f"healing: {summary.total_healing:.0f} | "
        f"deaths: {summary.deaths} (all resurrected: "
        f"{summary.resurrections == summary.deaths})"
    )

    print("\n== Index probes the evaluator answered ==")
    for counter, count in sorted(sim.engine.agg_eval.stats.items()):
        print(f"  {counter:20s} {count}")

    print("\n== EXPLAIN for the paper's Figure 3 script ==")
    print(explain_script(FIGURE_3_SCRIPT, build_registry()))


if __name__ == "__main__":
    main()
