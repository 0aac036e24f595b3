"""Spectator read replicas: correctness under load, throughput, wire cost.

Three sections:

1. **Live battle** -- a battle runs with the publish stage on; a
   :class:`~repro.serve.spectator.SpectatorReplica` process subscribes
   over loopback :class:`~repro.serve.transport.SocketTransport` and is
   queried at every epoch with *every query kind* (compiled-SGL
   aggregate, registered aggregate, canned team counts / HP histogram,
   spatial k-NN).  Each answer is **asserted bit-identical** to the
   authoritative engine evaluated at the same epoch -- the acceptance
   bar of the spectator subsystem -- before a single number is
   reported.
2. **Query throughput vs replica count** -- N replicas of one battle
   state, N client threads; total queries/sec.  Read replicas exist to
   scale reads horizontally, so this is the shape to watch (on a
   single-core CI container the curve is flat -- the JSON records
   ``cpu_count`` so trajectory consumers can tell).
3. **Subscriber wire cost** -- the per-subscriber bytes of the delta
   feed vs a snapshot per tick at controlled update rates, measured
   through a real :class:`~repro.serve.publisher.ReplicaPublisher` and
   a drained socket.  Asserts the >= 5x delta
   reduction at every rate <= 10% -- the same bar the worker broadcast
   protocol holds (``bench_shards.py``).

    PYTHONPATH=src:. python benchmarks/bench_spectators.py [--smoke] [--json PATH]

``--smoke`` shrinks the workload for CI; results land in
``BENCH_spectators_smoke.json`` so they never clobber full-run data.
"""

from __future__ import annotations

import argparse
import os
import random
import threading
import time

from benchmarks.util import (
    evolve_battle_env,
    fmt_table,
    make_battle_env,
    write_bench_json,
)
from repro.env.schema import battle_schema
from repro.env.sharding import EpochUpdate, encode_replica_delta
from repro.env.table import diff_by_key
from repro.game.battle import BattleSimulation
from repro.serve.publisher import ReplicaPublisher
from repro.serve.queries import AuthoritativeQueryService, unit_ref
from repro.serve.transport import SocketTransport

#: The compiled-from-source query kind: per-team size and total HP.
TEAM_HP_SQL = """
function TeamHp(p) returns
SELECT Count(*) AS n, Sum(health) AS hp
FROM E e
WHERE e.player = p;
"""


def query_matrix(grid: float) -> list[tuple[str, tuple, dict]]:
    """One query of every kind, centred on the battle's grid."""
    return [
        (TEAM_HP_SQL, (0,), {}),  # SGL compiled from source
        ("CountFriendlyKnights", (unit_ref(0),), {}),  # registered aggregate
        ("team_counts", (), {}),  # canned categorical counts
        ("hp_histogram", (), {"bucket": 25}),  # canned bucketed histogram
        ("knn", (5, grid / 2.0, grid / 2.0), {}),  # spatial k-NN
    ]


# -- section 1: live battle, bit-exactness asserted per epoch ------------------


def live_battle_section(n_units: int, ticks: int, *, seed: int) -> dict:
    with BattleSimulation(n_units, seed=seed, spectators=True) as sim:
        queries = query_matrix(sim.grid_size)
        with sim.spawn_spectator() as spectator:
            with spectator.client() as client:
                authority = AuthoritativeQueryService(sim.engine)
                checked = 0
                query_seconds = 0.0
                for _ in range(ticks):
                    sim.tick()
                    epoch = sim.engine.tick_count + 1
                    for query, args, params in queries:
                        t0 = time.perf_counter()
                        got = client.query(query, *args, epoch=epoch, **params)
                        query_seconds += time.perf_counter() - t0
                        want = authority.answer(query, *args, **params)
                        assert got.epoch == want.epoch == epoch
                        assert got.value == want.value, (
                            f"{query!r} diverged at epoch {epoch}: "
                            f"replica {got.value!r} != engine {want.value!r}"
                        )
                        checked += 1
                status = client.status()
        stats = sim.engine.publisher.stats
        publish_bytes = sum(s.publish_bytes for s in sim.summary.tick_stats)
        return {
            "config": "live spectator",
            "n_units": n_units,
            "ticks": ticks,
            "query_kinds": len(queries),
            "queries_checked": checked,
            "matches_baseline": True,  # every assert above passed
            "s_per_query": query_seconds / checked,
            "queries_per_s": checked / query_seconds,
            "publish_bytes_per_tick": publish_bytes / ticks,
            "delta_sends": stats.delta_sends,
            "snapshot_sends": stats.snapshot_sends,
            "replica_updates_applied": status["updates_applied"],
        }


# -- section 2: throughput vs number of replicas -------------------------------


def scaling_section(
    n_units: int, replica_counts: tuple[int, ...], queries_each: int, seed: int
) -> list[dict]:
    out = []
    with BattleSimulation(n_units, seed=seed, spectators=True) as sim:
        sim.run(2)
        queries = query_matrix(sim.grid_size)
        epoch = sim.engine.tick_count + 1
        for count in replica_counts:
            spectators = [sim.spawn_spectator() for _ in range(count)]
            sim.engine.publish_spectators()  # snapshot-feed the joiners
            clients = [s.client() for s in spectators]
            try:
                # pinning the current epoch doubles as the readiness wait
                for client in clients:
                    client.query("team_counts", epoch=epoch)

                def hammer(client, errors):
                    try:
                        for i in range(queries_each):
                            query, args, params = queries[i % len(queries)]
                            client.query(query, *args, **params)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                errors: list = []
                threads = [
                    threading.Thread(target=hammer, args=(client, errors))
                    for client in clients
                ]
                t0 = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                elapsed = time.perf_counter() - t0
                if errors:
                    raise errors[0]
                total = queries_each * count
                out.append(
                    {
                        "config": f"{count} replica(s)",
                        "replicas": count,
                        "queries": total,
                        "s_per_query": elapsed / total,
                        "queries_per_s": total / elapsed,
                    }
                )
            finally:
                for client in clients:
                    client.close()
                for spectator in spectators:
                    spectator.close()
    return out


# -- section 3: delta vs snapshot subscription cost ----------------------------


def next_update(prev, cur, epoch: int) -> EpochUpdate:
    """The feed's update from state *prev* (epoch - 1) to *cur*."""
    key = cur.schema.key
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
    return EpochUpdate(epoch, cur.rows, rd)


def _drain(transport: SocketTransport, counter: list) -> None:
    try:
        while True:
            transport.recv()
            counter[0] += 1
    except (EOFError, OSError):
        pass


def subscriber_volume_section(
    n_units: int, rates: list[float], rounds: int
) -> list[dict]:
    """Per-subscriber bytes of the delta feed vs a snapshot per tick.

    Drives a real publisher with one subscribed socket drained by a
    thread through a controlled-churn state stream; the publisher's byte
    counter is read after the subscriber was seeded with the initial
    snapshot, so the comparison is the steady-state subscription cost.
    The snapshot side is the blob a late joiner would be sent at each
    epoch.
    """
    schema = battle_schema()
    grid = max(int((n_units / 0.01) ** 0.5), 16)
    out = []
    for rate in rates:
        rng = random.Random(23)
        prev = make_battle_env(schema, n_units, grid, seed=5)
        pub = ReplicaPublisher()
        counter = [0]
        try:
            sub = SocketTransport.connect(pub.address)
            thread = threading.Thread(
                target=_drain, args=(sub, counter), daemon=True
            )
            thread.start()
            # seed: the late joiner's snapshot, outside the measurement
            pub.publish(EpochUpdate(1, prev.rows))
            seeded = pub.stats.bytes_sent
            snapshot_bytes = 0
            for epoch in range(1, rounds + 1):
                cur = evolve_battle_env(prev, rate, grid, rng)
                update = next_update(prev, cur, epoch + 1)
                pub.publish(update)
                snapshot_bytes += len(update.snapshot_blob())
                prev = cur
            delta_bytes = pub.stats.bytes_sent - seeded
            assert pub.stats.delta_sends == rounds
            assert pub.stats.drops == 0
        finally:
            pub.close()
        thread.join(timeout=5)
        # the subscriber saw the seed snapshot + every round
        assert counter[0] == rounds + 1
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
                f"delta subscription saved only {reduction:.2f}x at "
                f"{rate:.0%} update rate (need >= 5x)"
            )
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI workload; all bit-exactness asserts still run",
    )
    parser.add_argument(
        "--json", default=None,
        help="path of the machine-readable result (default: "
        "BENCH_spectators.json, or BENCH_spectators_smoke.json under "
        "--smoke)",
    )
    args = parser.parse_args(argv)
    if args.json is None:
        args.json = (
            "BENCH_spectators_smoke.json"
            if args.smoke
            else "BENCH_spectators.json"
        )

    if args.smoke:
        n_units, ticks = 150, 3
        replica_counts: tuple[int, ...] = (1, 2)
        queries_each, volume_rounds = 30, 3
    else:
        n_units, ticks = 5000, 3
        replica_counts = (1, 2, 4)
        queries_each, volume_rounds = 150, 4
    seed = 17
    update_rates = [0.01, 0.05, 0.10, 0.50]

    print(
        f"\n=== live battle + spectator: {n_units} units, {ticks} ticks, "
        f"{os.cpu_count()} cpu(s) ==="
    )
    live = live_battle_section(n_units, ticks, seed=seed)
    print(
        f"{live['queries_checked']} answers across {live['query_kinds']} "
        f"query kinds, every one bit-identical to the authoritative engine"
    )
    print(
        f"spectator served {live['queries_per_s']:.0f} queries/s "
        f"({live['s_per_query'] * 1e3:.2f} ms/query) while the battle ran; "
        f"feed shipped {live['publish_bytes_per_tick'] / 1024:.1f} KiB/tick "
        f"({live['delta_sends']} delta / {live['snapshot_sends']} snapshot "
        f"sends)"
    )

    print(f"\n=== query throughput vs replicas: {n_units} units ===")
    scaling = scaling_section(n_units, replica_counts, queries_each, seed)
    print(fmt_table(
        ["config", "queries", "s/query", "queries/s"],
        [
            [r["config"], r["queries"], r["s_per_query"],
             f"{r['queries_per_s']:.0f}"]
            for r in scaling
        ],
    ))
    if (os.cpu_count() or 1) < 2:
        print(
            "note: single-core machine -- replica scaling measures "
            "round-robin service, not parallel speedup"
        )

    print(
        f"\n=== subscription wire cost vs update rate: {n_units} units, "
        f"{volume_rounds} rounds ==="
    )
    volume = subscriber_volume_section(n_units, update_rates, volume_rounds)
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
        f"delta subscription >= 5x cheaper at all {len(low)} update rates "
        f"<= 10% (asserted)"
    )

    write_bench_json(
        args.json,
        "spectators",
        {
            "n_units": n_units,
            "ticks": ticks,
            "smoke": args.smoke,
            "equivalence_ok": True,  # every per-epoch assert passed
            "live": live,
            "scaling": scaling,
            "subscriber_volume": volume,
        },
    )


if __name__ == "__main__":
    main()
