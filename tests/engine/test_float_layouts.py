"""Float measures agree bit for bit across every layout of one engine.

A low-churn game whose divisible measure, the enemy centroid, averages
one-decimal positions: its sums are inexact in floating point, so they
depend on the order they are taken in.  Every index is rebuilt from the
same rows in the same order wherever it runs, so at the same
``num_shards`` the serial engine, two process workers, a spectator that
joined late (snapshot-fed) and a state recovered from the epoch log all
hold the same bits.
"""

import random
import socket

import pytest

from repro.api import GameDefinition, compile_script
from repro.engine.postprocess import example_41_postprocess
from repro.game.scripts import build_registry
from repro.persist import EpochLogReader
from repro.serve.queries import AuthoritativeQueryService, unit_ref
from repro.serve.spectator import SpectatorReplica
from tests.conftest import make_env

#: one unit in ten flees the centroid of the enemies it sees
FLEE = """
main(u) {
  (let ec = CentroidOfEnemies(u, u.sight)) {
    if (CountEnemiesInRange(u, u.sight) > 0) then
      perform MoveInDirection(u, u.posx - ec.x, u.posy - ec.y);
  }
}
"""
IDLE = "main(u) { }"

#: A spectator's float-sum query: one team's centroid.
TEAM_CENTROID_SQL = """
function TeamCentroid(p) returns
SELECT Avg(e.posx) AS x, Avg(e.posy) AS y
FROM E e
WHERE e.player = p;
"""

TICKS = 6
SHARDS = 2


def world(schema):
    env = make_env(
        schema, n=80, grid=30, seed=4, types=("knight",) + ("archer",) * 9
    )
    rng = random.Random(4)
    for row in env.rows:
        row["posx"] += rng.randrange(1, 10) / 10
        row["posy"] += rng.randrange(1, 10) / 10
    return env


def build_engine(schema, **knobs):
    registry = build_registry()
    game = GameDefinition(
        schema=schema,
        registry=registry,
        scripts={
            "knight": compile_script(FLEE, registry, schema),
            "archer": compile_script(IDLE, registry, schema),
        },
    )
    return game.engine(
        world(schema),
        lambda combined, rng, tick: example_41_postprocess(combined),
        num_shards=SHARDS,
        **knobs,
    )


def state(engine):
    """The rows in order; ``repr`` round-trips every float bit."""
    return repr(engine.env.rows)


def trajectory(schema, ticks=TICKS, **knobs):
    with build_engine(schema, **knobs) as engine:
        out = []
        for _ in range(ticks):
            engine.tick()
            out.append(state(engine))
        return out


@pytest.fixture(scope="module")
def serial(schema):
    return trajectory(schema, TICKS + 2)


def test_the_game_sums_inexact_floats_at_low_churn(schema, serial):
    # the centroid's sum depends on the order it is taken in
    xs = [row["posx"] for row in world(schema).rows]
    rng = random.Random(0)
    assert len({sum(rng.sample(xs, len(xs))) for _ in range(10)}) > 1
    with build_engine(schema) as engine:
        before = {row["key"]: dict(row) for row in engine.env.rows}
        engine.tick()
        changed = sum(row != before[row["key"]] for row in engine.env.rows)
    assert 0 < changed <= len(before) // 10
    assert serial[0] != serial[-1]


def test_process_workers_match_serial(schema, serial):
    got = trajectory(
        schema, parallelism="processes", max_workers=SHARDS
    )
    assert got == serial[:TICKS]


@pytest.mark.skipif(
    not hasattr(socket, "socketpair"),
    reason="platform lacks stream-socket support",
)
def test_late_spectator_answers_as_the_engine(schema, serial):
    with build_engine(schema, spectators=True) as engine:
        engine.run(3)
        truth = AuthoritativeQueryService(engine)
        spectator = SpectatorReplica.spawn(engine.spectator_address, engine.game)
        with spectator, spectator.client() as client:
            engine.publish_spectators()  # the late joiner's snapshot
            for _ in range(3):
                epoch = engine.tick_count + 1
                for query, args in [
                    (TEAM_CENTROID_SQL, (0,)),
                    (TEAM_CENTROID_SQL, (1,)),
                    ("CentroidOfEnemies", (unit_ref(0), 8)),
                    ("CentroidOfEnemies", (unit_ref(7), 12)),
                ]:
                    got = client.query(query, *args, epoch=epoch)
                    want = truth.answer(query, *args)
                    assert (got.epoch, repr(got.value)) == (
                        want.epoch, repr(want.value)
                    )
                engine.tick()
            assert client.status()["snapshots_applied"] == 1
        assert state(engine) == serial[5]


def test_recovered_log_matches_serial(schema, serial, tmp_path):
    path = str(tmp_path / "float.log")
    with build_engine(schema, epoch_log=path) as engine:
        engine.run(TICKS)
    with EpochLogReader(path) as reader:
        replayed = reader.replay()
    assert replayed.epoch == TICKS + 1
    assert repr(replayed.rows) == serial[TICKS - 1]
    with build_engine(schema) as engine:
        engine.restore_state(replayed.epoch, replayed.rows)
        resumed = []
        for _ in range(2):
            engine.tick()
            resumed.append(state(engine))
    assert resumed == serial[TICKS:]
