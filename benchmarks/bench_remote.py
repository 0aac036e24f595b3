"""Remote decision workers: bit-exactness, throughput, fault recovery.

Spectator read replicas stream over sockets; this bench covers the
other half of the distribution story -- the *decision* workers running
over :class:`~repro.serve.transport.SocketTransport` sessions to
``python -m repro.engine.shardexec --listen`` processes (spawned here on
ephemeral loopback ports, exactly what real worker hosts would run).

Two sections, each anchored to a hard assert:

* **live equivalence + throughput** -- the same battle runs on the flat
  serial engine and on remote socket workers.  Every configuration's
  final state must be
  **bit-identical** to the serial baseline; ``s_per_tick_remote`` and
  ``broadcast_bytes`` are recorded per configuration for the perf
  trajectory;
* **kill/reconnect fault drill** -- worker connections are dropped
  mid-run; the coordinator must reconnect, snapshot re-feed, and still
  land on the identical final state.

    PYTHONPATH=src:. python benchmarks/bench_remote.py [--smoke] [--json PATH]

``--smoke`` shrinks the workload for CI (loopback sockets, single
core); results land in ``BENCH_remote_smoke.json`` so they never
overwrite full-run data points.
"""

from __future__ import annotations

import argparse
import os
import time

from benchmarks.util import fmt_table, write_bench_json
from repro.engine.shardexec import spawn_listen_worker
from repro.game.battle import BattleSimulation


def run_config(
    n_units: int,
    ticks: int,
    *,
    seed: int,
    label: str,
    drop_workers_at: int | None = None,
    **battle_kwargs,
) -> dict:
    """Time one configuration; returns a result record with signature.

    *drop_workers_at* (a tick index) injects the kill/reconnect drill:
    every worker's socket is dropped after that tick, so the rest of the
    run must recover through reconnect + snapshot re-feed.
    """
    with BattleSimulation(n_units, seed=seed, **battle_kwargs) as sim:
        start = time.perf_counter()
        reconnects = 0
        if drop_workers_at is None:
            sim.run(ticks)
        else:
            for tick in range(ticks):
                sim.tick()
                if tick == drop_workers_at:
                    pool = sim.engine._pool
                    for index in range(pool.num_workers):
                        pool.debug_drop_worker(index)
            reconnects = sim.engine.worker_stats.reconnects
        elapsed = time.perf_counter() - start
        stats = sim.engine.worker_stats
        return {
            "config": label,
            "workers": "remote" if battle_kwargs.get("workers") else "serial",
            "s_per_tick_remote": elapsed / ticks,
            "broadcast_bytes": (stats.bytes_broadcast / ticks) if stats else 0,
            "reconnects": reconnects,
            "signature": sim.state_signature(),
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI workload over loopback sockets",
    )
    parser.add_argument(
        "--json", default=None,
        help="path of the machine-readable result (default: "
        "BENCH_remote.json, or BENCH_remote_smoke.json under --smoke)",
    )
    args = parser.parse_args(argv)
    if args.json is None:
        args.json = (
            "BENCH_remote_smoke.json" if args.smoke else "BENCH_remote.json"
        )

    if args.smoke:
        n_units, ticks, num_workers, num_shards = 120, 3, 2, 4
    else:
        n_units, ticks, num_workers, num_shards = 2000, 4, 2, 4
    seed = 13

    print(
        f"\n=== remote decision workers: {n_units} units, {ticks} ticks, "
        f"{num_workers} loopback socket workers, {os.cpu_count()} cpu(s) ==="
    )
    listeners = []
    endpoints = []
    for _ in range(num_workers):
        process, address = spawn_listen_worker()
        listeners.append(process)
        endpoints.append(f"{address[0]}:{address[1]}")
    print(f"workers listening on {', '.join(endpoints)}")

    try:
        remote = dict(
            num_shards=num_shards, shard_by="spatial",
            parallelism="processes", workers=endpoints,
        )
        configs: list[tuple[str, dict]] = [
            ("serial flat (baseline)", {}),
            ("remote full-replica", dict(remote)),
        ]
        results = []
        for label, kwargs in configs:
            results.append(
                run_config(n_units, ticks, seed=seed, label=label, **kwargs)
            )
        # the kill/reconnect fault drill: drop every worker connection
        # mid-run and require the identical final state regardless
        results.append(
            run_config(
                n_units, ticks, seed=seed,
                label="remote full-replica + reconnect drill",
                drop_workers_at=ticks // 2,
                **remote,
            )
        )
    finally:
        for process in listeners:
            process.terminate()

    baseline = results[0]
    for result in results[1:]:
        assert result["signature"] == baseline["signature"], (
            f"{result['config']} diverged from the flat serial baseline"
        )
        result["matches_baseline"] = True
    drill = results[-1]
    assert drill["reconnects"] >= num_workers, (
        f"reconnect drill re-established only {drill['reconnects']} of "
        f"{num_workers} dropped sessions"
    )
    print(
        f"all {len(results)} configurations bit-identical to the baseline "
        f"(incl. the reconnect drill: {drill['reconnects']} sessions "
        "re-established)"
    )

    print(fmt_table(
        ["config", "s/tick", "bcast KiB/tick"],
        [
            [
                result["config"],
                result["s_per_tick_remote"],
                f"{result['broadcast_bytes'] / 1024:.1f}",
            ]
            for result in results
        ],
    ))

    write_bench_json(
        args.json,
        "remote",
        {
            "n_units": n_units,
            "ticks": ticks,
            "num_workers": num_workers,
            "num_shards": num_shards,
            "smoke": args.smoke,
            "equivalence_ok": True,
            "results": [
                {k: v for k, v in result.items() if k != "signature"}
                for result in results
            ],
        },
    )


if __name__ == "__main__":
    main()
