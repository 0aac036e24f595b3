"""Sharded tick pipeline: throughput, broadcast volume, and parallelism.

The engine partitions ``E`` by a configurable shard key and runs the
decision / AoE stages shard-at-a-time, optionally with the decision
stage on worker processes (``parallelism="processes"``).  ⊕ is
associative/commutative (Eq. 3), so the per-shard effect tables merge
deterministically and every configuration is bit-identical to the flat
engine -- which this bench *asserts* on the final battle state before
it reports a single number.

Process workers are stateful replica holders: the coordinator ships an
epoch-versioned delta per tick instead of re-broadcasting the full row
set.  This bench reports **bytes-broadcast-per-tick** on the live battle
next to what a snapshot per worker per tick would have cost, and a
dedicated section measures the snapshot-vs-delta pickle volume on a
controlled-churn workload across update rates -- asserting the ≥5x
reduction the replica protocol exists for at ≤10% changed rows per
tick.

One caveat the timing numbers must be read with: process workers need
several physical cores and large battles to win even with delta
broadcasts.

The JSON artifact (``BENCH_shards.json``; ``BENCH_shards_smoke.json``
under ``--smoke``, so smoke timings never overwrite full-run data
points) records ``cpu_count`` so a trajectory consumer can tell a
1-core CI container from a real machine.

    PYTHONPATH=src:. python benchmarks/bench_shards.py [--smoke] [--json PATH]

``--smoke`` shrinks the workload for CI and adds processes mode to the
equivalence assertion (every mode must match the flat baseline).
"""

from __future__ import annotations

import argparse
import os
import random
import time

from benchmarks.util import (
    evolve_battle_env,
    fmt_table,
    make_battle_env,
    write_bench_json,
)
from repro.env.schema import battle_schema
from repro.env.sharding import (
    delta_blob,
    encode_replica_delta,
    snapshot_blob,
)
from repro.env.table import diff_by_key
from repro.game.battle import BattleSimulation


def run_config(
    n_units: int,
    ticks: int,
    *,
    seed: int,
    label: str,
    **battle_kwargs,
) -> dict:
    """Time one configuration; returns a result record with signature."""
    with BattleSimulation(n_units, seed=seed, **battle_kwargs) as sim:
        start = time.perf_counter()
        sim.run(ticks)
        elapsed = time.perf_counter() - start
        broadcast = sum(
            s.broadcast_bytes for s in sim.summary.tick_stats
        )
        engine = sim.engine
        pool_size = engine._pool.num_workers if engine._pool else 0
        return {
            "config": label,
            "num_shards": battle_kwargs.get("num_shards", 1),
            "parallelism": battle_kwargs.get("parallelism", "serial"),
            "shard_by": battle_kwargs.get("shard_by", "key"),
            "s_per_tick": elapsed / ticks,
            "ticks_per_s": ticks / elapsed,
            "broadcast_bytes_per_tick": broadcast / ticks,
            # what feeding every worker a snapshot each tick would ship
            "snapshot_bytes_per_tick": pool_size * len(
                snapshot_blob(engine.tick_count, engine.env.rows)
            ),
            "signature": sim.state_signature(),
        }


# -- broadcast volume under controlled churn -----------------------------------


def broadcast_volume_section(
    n_units: int, rates: list[float], rounds: int
) -> list[dict]:
    """Snapshot-vs-delta wire bytes per tick at controlled update rates.

    Replays the exact blobs the coordinator would ship: a full snapshot
    broadcast vs the epoch-stamped
    :class:`~repro.env.sharding.ReplicaDelta` (sparse attribute patches,
    keys-only deletes, elided row order).  Asserts the ≥5x reduction at
    every rate ≤10% -- the regime the ROADMAP's replica protocol targets.
    """
    schema = battle_schema()
    grid = max(int((n_units / 0.01) ** 0.5), 16)
    key = schema.key
    out = []
    for rate in rates:
        rng = random.Random(23)
        prev = make_battle_env(schema, n_units, grid, seed=5)
        snapshot_bytes = delta_bytes = 0
        for epoch in range(1, rounds + 1):
            cur = evolve_battle_env(prev, rate, grid, rng)
            delta = diff_by_key(prev, cur)
            assert delta is not None  # synthetic envs are keyed
            rd = encode_replica_delta(
                delta,
                old_order=[row[key] for row in prev.rows],
                new_order=[row[key] for row in cur.rows],
                key_attr=key,
                base_epoch=epoch - 1,
                epoch=epoch,
            )
            snapshot_bytes += len(snapshot_blob(epoch, cur.rows))
            delta_bytes += len(delta_blob(rd))
            prev = cur
        reduction = snapshot_bytes / delta_bytes
        out.append(
            {
                "update_rate": rate,
                "snapshot_bytes_per_tick": snapshot_bytes / rounds,
                "delta_bytes_per_tick": delta_bytes / rounds,
                "reduction": reduction,
            }
        )
        if rate <= 0.10:
            assert reduction >= 5.0, (
                f"delta broadcast saved only {reduction:.2f}x at "
                f"{rate:.0%} update rate (need >= 5x)"
            )
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI workload; asserts every mode matches the baseline",
    )
    parser.add_argument(
        "--json", default=None,
        help="path of the machine-readable result (default: "
        "BENCH_shards.json, or BENCH_shards_smoke.json under --smoke)",
    )
    args = parser.parse_args(argv)
    if args.json is None:
        args.json = (
            "BENCH_shards_smoke.json" if args.smoke else "BENCH_shards.json"
        )

    if args.smoke:
        n_units, ticks, workers = 120, 3, 2
        shard_counts = (2, 4)
        volume_rounds = 3
    else:
        n_units, ticks, workers = 5000, 3, 4
        shard_counts = (4,)
        volume_rounds = 4
    seed = 11
    update_rates = [0.01, 0.05, 0.10, 0.50]

    configs: list[tuple[str, dict]] = [("1 shard serial (baseline)", {})]
    for shards in shard_counts:
        configs.append(
            (f"{shards} shards serial spatial",
             dict(num_shards=shards, shard_by="spatial")),
        )
    configs.append(
        (f"{shard_counts[-1]} shards serial by-key",
         dict(num_shards=shard_counts[-1], shard_by="key")),
    )
    configs.append(
        (f"{shard_counts[-1]} shards processes x{workers}",
         dict(num_shards=shard_counts[-1], shard_by="spatial",
              parallelism="processes", max_workers=workers)),
    )

    print(
        f"\n=== sharded tick throughput: {n_units} units, {ticks} ticks, "
        f"{os.cpu_count()} cpu(s) ==="
    )
    results = []
    for label, kwargs in configs:
        results.append(
            run_config(n_units, ticks, seed=seed, label=label, **kwargs)
        )

    baseline = results[0]
    for result in results[1:]:
        assert result["signature"] == baseline["signature"], (
            f"{result['config']} diverged from the flat baseline"
        )
        result["matches_baseline"] = True
    print(f"all {len(results)} configurations bit-identical to the baseline")

    rows = []
    for result in results:
        result["speedup_vs_baseline"] = (
            baseline["s_per_tick"] / result["s_per_tick"]
        )
        rows.append(
            [
                result["config"],
                result["s_per_tick"],
                result["ticks_per_s"],
                f"{result['speedup_vs_baseline']:.2f}x",
                f"{result['broadcast_bytes_per_tick'] / 1024:.1f}",
            ]
        )
    print(fmt_table(
        ["config", "s/tick", "ticks/s", "speedup", "bcast KiB/tick"], rows
    ))
    if (os.cpu_count() or 1) < 2:
        print(
            "note: single-core machine -- parallel rows measure pipeline "
            "overhead, not speedup"
        )

    live = next(r for r in results if r["parallelism"] == "processes")
    live_reduction = (
        live["snapshot_bytes_per_tick"] / live["broadcast_bytes_per_tick"]
    )
    print(
        f"\nlive battle broadcast volume: the workers were shipped "
        f"{live_reduction:.2f}x fewer bytes/tick than a snapshot each "
        f"(high-churn workload, first-tick snapshots included; see the "
        f"update-rate sweep below)"
    )

    print(
        f"\n=== broadcast volume vs update rate: {n_units} units, "
        f"{volume_rounds} rounds ==="
    )
    volume = broadcast_volume_section(n_units, update_rates, volume_rounds)
    print(fmt_table(
        ["changed/tick", "snapshot KiB/tick", "delta KiB/tick", "reduction"],
        [
            [
                f"{v['update_rate']:.0%}",
                v["snapshot_bytes_per_tick"] / 1024,
                v["delta_bytes_per_tick"] / 1024,
                f"{v['reduction']:.1f}x",
            ]
            for v in volume
        ],
    ))
    low = [v for v in volume if v["update_rate"] <= 0.10]
    print(
        f"delta broadcast >= 5x smaller at all {len(low)} update rates "
        f"<= 10% (asserted)"
    )

    write_bench_json(
        args.json,
        "shards",
        {
            "n_units": n_units,
            "ticks": ticks,
            "workers": workers,
            "smoke": args.smoke,
            "equivalence_ok": True,
            "live_delta_vs_snapshot_reduction": live_reduction,
            "results": [
                {k: v for k, v in result.items() if k != "signature"}
                for result in results
            ],
            "broadcast_volume": volume,
        },
    )


if __name__ == "__main__":
    main()
