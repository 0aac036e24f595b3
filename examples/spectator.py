"""Spectator read replicas: watch a battle from outside the simulation.

Runs a battle in this process with the spectator feed enabled, spawns a
:class:`~repro.serve.spectator.SpectatorReplica` server process
subscribed over loopback TCP, and -- while the battle keeps ticking --
streams live per-team aggregates out of the *replica*, never touching
the simulation's own evaluator.

The replica holds its own copy of ``E``, kept current by the engine's
epoch-versioned delta broadcasts (snapshot catch-up on join), plus the
index structures its queries probe, rebuilt every epoch as the
decision workers' are; every answer is pinned to one consistent
tick epoch and is bit-identical to what the engine itself would
compute at that epoch.

    PYTHONPATH=src python examples/spectator.py
"""

from repro import BattleSimulation, unit_ref

#: A query compiled *from source, by the replica*: the client ships this
#: restricted-SQL aggregate over the wire; the replica classifies its
#: shape and answers it from a divisible index.
TEAM_STRENGTH = """
function TeamStrength(p) returns
SELECT Count(*) AS n, Sum(health) AS hp, Avg(health) AS avg_hp
FROM E e
WHERE e.player = p;
"""


def main() -> None:
    with BattleSimulation(
        400, seed=11, density=0.02, spectators=True
    ) as sim:
        print(f"battle of 400 units; spectator feed at {sim.spectator_address}")
        with sim.spawn_spectator() as spectator:
            with spectator.client() as client:
                for _ in range(8):
                    sim.tick()
                    epoch = sim.engine.tick_count + 1
                    # pinning the epoch waits (server-side) until the
                    # replica has applied this tick's delta
                    teams = [
                        client.query(TEAM_STRENGTH, p, epoch=epoch).value
                        for p in (0, 1)
                    ]
                    hist = client.query(
                        "hp_histogram", epoch=epoch, bucket=25
                    ).value
                    center = sim.grid_size / 2.0
                    knn = client.query(
                        "knn", 3, center, center, epoch=epoch
                    ).value
                    print(
                        f"epoch {epoch:2d}  "
                        + "  ".join(
                            f"team {p}: {t['n']:3d} units "
                            f"{t['hp']:6.0f} hp"
                            for p, t in enumerate(teams)
                        )
                        + f"  | hp buckets {[c for _, c in hist]}"
                        + f"  | mid-field units {[k for k, _ in knn]}"
                    )
                # a unit-parameterised registered aggregate works too:
                # the replica substitutes its own row for the key
                nearby = client.query(
                    "CountEnemiesInRange", unit_ref(0), 10
                )
                print(
                    f"enemies within 10 of unit 0 at epoch {nearby.epoch}: "
                    f"{nearby.value}"
                )
                status = client.status()
        print(
            f"replica applied {status['updates_applied']} updates "
            f"({status['snapshots_applied']} snapshot) and answered "
            f"{status['engine_stats']['queries']} queries; "
            f"publisher shipped "
            f"{sim.engine.publisher.stats.bytes_sent / 1024:.1f} KiB total"
        )


if __name__ == "__main__":
    main()
