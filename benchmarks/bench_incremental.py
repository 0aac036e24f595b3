"""Incremental index maintenance vs per-tick rebuild, across update rates.

The paper rebuilds every aggregate index from scratch each clock tick;
the incremental subsystem instead patches retained structures with the
row delta.  Which wins depends on the *update rate* -- the fraction of
unit rows that change per tick -- and the evaluator picks by one rule:
patch while at most ``_PATCH_FRACTION`` of the rows changed, rebuild
above it.  This bench sweeps the rate over a synthetic workload (a
battle-schema environment where exactly ``p*n`` units move and lose
health each round, everyone else holds still) and reports per-round
maintenance+probe wall-clock for three configs: ``rebuild`` (no delta
handed over), ``patch`` (the threshold forced to 1.0, so every usable
delta patches) and ``rule`` (the default).  Expected shape: ``patch``
beats ``rebuild`` clearly at low rates (<= 10% changed rows), loses
once most rows churn, and ``rule`` tracks the better of the two.

A second section times the full battle engine with the threshold at
its default and forced each way, as an end-to-end sanity check (the
default battle moves most units every tick, so ``rule`` should hug
``rebuild`` there), and asserts the three trajectories are identical.

    PYTHONPATH=src:. python benchmarks/bench_incremental.py [--smoke]

``--smoke`` shrinks the workload for CI; both sizes assert the three
configs agree on every probe result and engine state, so a correctness
regression fails the job.
"""

from __future__ import annotations

import argparse
import contextlib
import random
import sys
import time

from benchmarks.util import (
    evolve_battle_env,
    fmt_table,
    make_battle_env,
    write_bench_json,
)
from repro.engine import evaluator as evaluator_module
from repro.engine.evaluator import IndexedEvaluator
from repro.env.schema import battle_schema
from repro.env.table import diff_by_key
from repro.game.battle import BattleSimulation
from repro.game.scripts import build_registry
from repro.sgl.evalterm import EvalContext

PROBES = [
    ("CountEnemiesInRange", lambda u: (u, u["sight"])),
    ("FriendlySpread", lambda u: (u,)),
    ("NearestEnemy", lambda u: (u,)),
]


#: Each config's ``_PATCH_FRACTION``: never patch, always patch with a
#: usable delta, the default rule.
FRACTIONS = {
    "rebuild": -1.0,
    "patch": 1.0,
    "rule": evaluator_module._PATCH_FRACTION,
}
CONFIGS = tuple(FRACTIONS)


@contextlib.contextmanager
def patch_fraction(config):
    """Run the evaluator's rebuild-or-patch rule at *config*'s threshold."""
    saved = evaluator_module._PATCH_FRACTION
    evaluator_module._PATCH_FRACTION = FRACTIONS[config]
    try:
        yield
    finally:
        evaluator_module._PATCH_FRACTION = saved


def run_config(config, generations, registry, probe_units):
    """Total maintenance+probe seconds over pre-generated environments."""
    evaluator = IndexedEvaluator(registry)
    results = []
    total = 0.0
    prev = None
    for env in generations:
        # change capture is timed, cut off at the evaluator's budget as
        # the engine cuts it: a per-tick cost only the configs that may
        # patch pay ("rebuild" hands over no delta at all)
        start = time.perf_counter()
        delta = (
            diff_by_key(
                prev, env, max_changed=evaluator.delta_budget(len(env))
            )
            if prev is not None and config != "rebuild"
            else None
        )
        evaluator.begin_tick(env, delta=delta)
        for fn_name, args_for in PROBES:
            fn = registry.aggregates[fn_name]
            for unit in env.rows[:probe_units]:
                ctx = EvalContext(
                    env=env, registry=registry, agg_eval=evaluator,
                    rng=lambda row, i: 0, bindings={"u": unit}, unit=unit,
                )
                results.append(
                    evaluator.evaluate(fn, list(args_for(unit)), ctx)
                )
        total += time.perf_counter() - start
        prev = env
    return total, results, evaluator.stats


def sweep(n, grid, rates, rounds, registry, probe_units, check):
    schema = battle_schema()
    rows = []
    for rate in rates:
        rng = random.Random(17)
        generations = [make_battle_env(schema, n, grid, seed=5)]
        for _ in range(rounds):
            generations.append(
                evolve_battle_env(generations[-1], rate, grid, rng)
            )

        timings = {}
        outputs = {}
        for config in CONFIGS:
            with patch_fraction(config):
                seconds, results, _ = run_config(
                    config, generations, registry, probe_units
                )
            timings[config] = seconds / len(generations)
            outputs[config] = results
        if check:
            for config in ("patch", "rule"):
                assert outputs[config] == outputs["rebuild"], (
                    f"{config} diverged from rebuild at rate {rate}"
                )
        rows.append(
            [
                f"{rate:.0%}",
                timings["rebuild"],
                timings["patch"],
                timings["rule"],
                f"{timings['rebuild'] / timings['patch']:.2f}x",
            ]
        )
    return rows


def engine_section(n, ticks):
    """Time the battle engine under each config; the default ("rule")
    must play exactly the game of both forced ones."""
    rows = []
    signatures = {}
    for config in CONFIGS:
        with patch_fraction(config):
            sim = BattleSimulation(n, seed=3)
            start = time.perf_counter()
            sim.run(ticks)
            per_tick = (time.perf_counter() - start) / ticks
        upkeep = sum(s.maintenance_time for s in sim.summary.tick_stats)
        rows.append([config, per_tick, upkeep / ticks])
        signatures[config] = sim.state_signature()
    for config in ("rebuild", "patch"):
        assert signatures["rule"] == signatures[config], (
            f"the default engine diverged from forced {config} configs"
        )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI workload (every size asserts config agreement)",
    )
    parser.add_argument(
        "--json", default=None,
        help="path of the machine-readable result (default: "
        "BENCH_incremental.json, or BENCH_incremental_smoke.json under "
        "--smoke so smoke timings never overwrite full-run data points)",
    )
    args = parser.parse_args(argv)
    if args.json is None:
        args.json = (
            "BENCH_incremental_smoke.json"
            if args.smoke
            else "BENCH_incremental.json"
        )

    if args.smoke:
        n, grid, rounds, probe_units = 120, 60, 3, 12
        rates = [0.05, 0.5]
        engine_n, engine_ticks = 40, 3
    else:
        n, grid, rounds, probe_units = 600, 140, 6, 60
        rates = [0.01, 0.02, 0.05, 0.10, 0.25, 0.50, 1.00]
        engine_n, engine_ticks = 300, 6

    registry = build_registry()
    print(f"\n=== maintenance cost sweep: {n} units, {rounds} rounds, "
          f"{probe_units} probe units/round ===")
    rows = sweep(n, grid, rates, rounds, registry, probe_units, check=True)
    print(fmt_table(
        ["changed/tick", "rebuild s", "patch s", "rule s", "speedup"],
        rows,
    ))

    print(f"\n=== full battle engine: {engine_n} units, {engine_ticks} ticks "
          f"(high churn; rule should track rebuild) ===")
    engine_rows = engine_section(engine_n, engine_ticks)
    print(fmt_table(["config", "s/tick", "upkeep s/tick"], engine_rows))

    low = [r for r in rows if float(r[0].rstrip("%")) <= 10]
    wins = sum(1 for r in low if r[1] > r[2])
    print(f"\npatching wins at {wins}/{len(low)} low update rates "
          f"(<=10% changed rows)")

    write_bench_json(
        args.json,
        "incremental",
        {
            "n_units": n,
            "rounds": rounds,
            "probe_units": probe_units,
            "smoke": args.smoke,
            # reaching this line means every config-agreement assert above
            # held; trajectory consumers gate on it (a missing JSON or a
            # False here is an equivalence break, not a slowdown)
            "equivalence_ok": True,
            "sweep": [
                {
                    "changed_fraction": row[0],
                    "rebuild_s": row[1],
                    "patch_s": row[2],
                    "rule_s": row[3],
                    "speedup": row[4],
                }
                for row in rows
            ],
            "engine": [
                {
                    "config": row[0],
                    "s_per_tick": row[1],
                    "upkeep_s_per_tick": row[2],
                }
                for row in engine_rows
            ],
            "patch_wins_at_low_rates": f"{wins}/{len(low)}",
        },
    )
    if args.smoke:
        # smoke gates on correctness only (the asserts above); the
        # sub-millisecond timings of the tiny workload are too noisy
        # for a hard perf gate on shared CI runners
        return 0
    return 0 if wins else 1


if __name__ == "__main__":
    sys.exit(main())
