"""Spectator time travel: any retained epoch, bit-identical answers.

The drill records the authoritative engine's answers at every epoch
while the battle runs, then asks the spectator for each *historical*
epoch after the replica has long moved on.  Reconstruction goes
checkpoint + deltas through the same ReplicaTable/QueryEngine path as
a live answer, so every value must match bit-for-bit -- across every
query kind, not just the cheap ones.  Eviction is loud: an epoch
outside the retained span errors with the span, never approximates.
"""

import time

import pytest

from repro.game.battle import BattleSimulation
from repro.serve.queries import AuthoritativeQueryService, unit_ref
from repro.serve.spectator import SpectatorError

TEAM_HP_SQL = """
function TeamHp(p) returns
SELECT Count(*) AS n, Sum(health) AS hp
FROM E e
WHERE e.player = p;
"""

QUERY_MATRIX = [
    (TEAM_HP_SQL, (0,), {}),
    ("CountFriendlyKnights", (unit_ref(0),), {}),
    ("team_counts", (), {}),
    ("hp_histogram", (), {"bucket": 25}),
    ("knn", (4, 12.0, 12.0), {}),
]


def wait_for_epoch(client, epoch, deadline=10.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if client.status()["epoch"] == epoch:
            return
        time.sleep(0.02)
    raise AssertionError(f"replica never reached epoch {epoch}")


@pytest.fixture()
def battle():
    with BattleSimulation(
        48, density=0.02, seed=19, spectators=True
    ) as sim:
        yield sim


def test_time_travel_bit_identical_at_every_epoch(battle):
    """The acceptance drill: record live, query historically, compare."""
    with battle.spawn_spectator(history_checkpoint_every=3) as spectator:
        with spectator.client() as client:
            authority = AuthoritativeQueryService(battle.engine)
            want = {}
            for _ in range(8):
                battle.tick()
                epoch = battle.engine.tick_count + 1
                want[epoch] = [
                    authority.answer(q, *args, **params).value
                    for q, args, params in QUERY_MATRIX
                ]
            latest = battle.engine.tick_count + 1
            wait_for_epoch(client, latest)
            # the replica is at `latest`; every earlier epoch is history
            for epoch, values in want.items():
                for (q, args, params), expect in zip(QUERY_MATRIX, values):
                    got = client.query(q, *args, epoch=epoch, **params)
                    assert got.epoch == epoch
                    assert got.value == expect, (q, epoch)
            status = client.status()
            span = status["history_span"]
            assert span[0] <= min(want) and span[1] == latest
            assert status["history_bytes"] > 0


def test_repeated_queries_reuse_reconstruction(battle):
    """Same-epoch queries hit the cached engine -- and still match."""
    with battle.spawn_spectator() as spectator:
        with spectator.client() as client:
            battle.run(4)
            target = 3  # an epoch well behind the replica
            wait_for_epoch(client, battle.engine.tick_count + 1)
            first = client.query("team_counts", epoch=target)
            again = client.query("hp_histogram", bucket=25, epoch=target)
            third = client.query("team_counts", epoch=target)
            assert first.epoch == again.epoch == third.epoch == target
            assert first.value == third.value


def test_evicted_epoch_errors_with_span(battle):
    with battle.spawn_spectator(
        history_retain=3, history_checkpoint_every=2
    ) as spectator:
        with spectator.client() as client:
            battle.run(8)
            latest = battle.engine.tick_count + 1
            wait_for_epoch(client, latest)
            span = client.status()["history_span"]
            assert span[1] == latest
            assert span[0] > 2  # old epochs actually evicted
            # inside the span: served
            answer = client.query("team_counts", epoch=span[0])
            assert answer.epoch == span[0]
            # evicted: loud error naming what IS retained
            with pytest.raises(
                SpectatorError, match=r"superseded.*retains epochs"
            ):
                client.query("team_counts", epoch=2)


def test_query_errors_at_historical_epochs_are_not_fatal(battle):
    with battle.spawn_spectator() as spectator:
        with spectator.client() as client:
            battle.run(3)
            wait_for_epoch(client, battle.engine.tick_count + 1)
            with pytest.raises(SpectatorError, match="unknown aggregate"):
                client.query("NoSuchAggregate", epoch=2)
            # the server survives and still time-travels
            assert client.query("team_counts", epoch=2).epoch == 2


def test_restored_timeline_drops_the_reconstruction_cache():
    """A restore rewinds the feed; a cached epoch of the superseded
    timeline must not answer for the same epoch of the new one."""
    with BattleSimulation(80, seed=3, spectators=True) as sim:
        with sim.spawn_spectator(
            history_checkpoint_every=2
        ) as spectator, spectator.client() as client:
            authority = AuthoritativeQueryService(sim.engine)
            sim.run(5)
            wait_for_epoch(client, sim.engine.tick_count + 1)
            old = client.query("hp_histogram", bucket=1, epoch=4)
            rows = [
                dict(row, health=row["health"] // 2)
                for row in sim.engine.env.rows
            ]
            sim.engine.restore_state(2, rows)
            want = {}
            for _ in range(4):
                sim.tick()
                epoch = sim.engine.tick_count + 1
                want[epoch] = authority.answer("hp_histogram", bucket=1)
            wait_for_epoch(client, sim.engine.tick_count + 1)
            got = client.query("hp_histogram", bucket=1, epoch=4)
            assert want[4].epoch == got.epoch == 4
            assert want[4].value != old.value  # the timelines differ
            assert got.value == want[4].value
