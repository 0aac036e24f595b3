"""Index upkeep between ticks in the indexed evaluator and engine.

Every tick drops the retained indexes and rebuilds each on its first
probe, as the paper does.  Covers that rebuilt indexes answer as the
naive scan does across generations of a changing environment, change
capture in the tick loop (only for the replica feeds), a low-churn game
played alike naive and in workers, and the decision stage's one runner
per script.
"""

from repro.api import GameDefinition, compile_script
from repro.engine.evaluator import IndexedEvaluator, NaiveEvaluator
from repro.engine.postprocess import example_41_postprocess
from repro.env.table import EnvironmentTable
from repro.game.battle import BattleSimulation
from repro.game.scripts import build_registry
from repro.serve.transport import SocketTransport
from repro.sgl.evalterm import EvalContext
from tests.conftest import make_env


def make_ctx(env, registry, agg_eval, unit):
    return EvalContext(
        env=env,
        registry=registry,
        agg_eval=agg_eval,
        rng=lambda row, i: 0,
        bindings={"u": unit},
        unit=unit,
    )


AGG_CALLS = [
    ("CountEnemiesInRange", lambda u: (u, u["sight"])),
    ("CentroidOfEnemies", lambda u: (u, 8)),
    ("FriendlySpread", lambda u: (u,)),
    ("NearestEnemy", lambda u: (u,)),
]


def evolve(env, step, movers=4):
    """A mutated deep copy: *movers* units move, one dies, one spawns."""
    schema = env.schema
    new = EnvironmentTable(schema)
    rows = [dict(r) for r in env.rows]
    dead = rows.pop(step % len(rows))
    for row in rows[:: max(1, len(rows) // movers)]:
        row["posx"] = (row["posx"] + 1 + step) % 30
        row["health"] = max(row["health"] - 1, 1)
    spawn = dict(dead)
    spawn["key"] = 1000 + step
    spawn["posx"] = (spawn["posx"] + 7) % 30
    rows.append(spawn)
    new.rows.extend(rows)
    return new


#: Three readers of one shared index, mixing avg (no Σv² kept for it
#: alone) with stddev (Σv² kept) and Count(*).
SHARED_CALLS = [
    ("CentroidOfFriendlyType", lambda u: (u,)),
    ("FriendlySpread", lambda u: (u,)),
    ("CountFriendlyType", lambda u: (u,)),
]


class TestEvaluatorDeltaMaintenance:
    def probe_all(self, evaluator, env, registry, calls=AGG_CALLS):
        out = []
        for fn_name, args_for in calls:
            fn = registry.aggregates[fn_name]
            for unit in env.rows:
                ctx = make_ctx(env, registry, evaluator, unit)
                out.append(evaluator.evaluate(fn, list(args_for(unit)), ctx))
        return out

    def test_rebuilt_indexes_match_naive_across_generations(
        self, schema, registry
    ):
        env = make_env(schema, n=30, grid=30, seed=21)
        evaluator = IndexedEvaluator(registry)
        naive = NaiveEvaluator()
        evaluator.begin_tick(env)
        self.probe_all(evaluator, env, registry)  # build the structures

        for step in range(1, 5):
            env = evolve(env, step)
            evaluator.begin_tick(env)
            got = self.probe_all(evaluator, env, registry)
            assert got == self.probe_all(naive, env, registry)
        assert evaluator.stats.get("rebuild_ticks") == 4

    def test_shared_index_mixing_avg_and_stddev(self, schema, registry):
        env = make_env(schema, n=30, grid=30, seed=22)
        evaluator = IndexedEvaluator(registry)
        naive = NaiveEvaluator()
        for step in range(1, 5):
            env = evolve(env, step)
            evaluator.begin_tick(env)
            got = self.probe_all(evaluator, env, registry, SHARED_CALLS)
            assert got == self.probe_all(naive, env, registry, SHARED_CALLS)
            # one index for all three readers
            assert len(evaluator._div_index) == 1

    def test_begin_tick_drops_every_structure(self, schema, registry):
        env = make_env(schema, n=10, seed=5)
        evaluator = IndexedEvaluator(registry)
        evaluator.begin_tick(env)
        self.probe_all(evaluator, env, registry)
        assert evaluator._div_index and evaluator._kd_index
        evaluator.begin_tick(env)
        assert not evaluator._div_index and not evaluator._kd_index
        assert evaluator.stats.get("rebuild_ticks") == 1


class TestEngineWiring:
    def test_naive_mode_ignores_maintenance(self):
        sim = BattleSimulation(16, mode="naive", seed=1)
        sim.run(2)  # must not attempt capture / delta plumbing
        assert sim.summary.ticks == 2

    def test_delta_captured_and_consumed(self, tmp_path):
        """The tick diffs its state only for an attached feed, which
        gets the delta; a flat engine with nothing attached never
        diffs."""
        with BattleSimulation(20, seed=2) as sim:
            sim.run(2)
            assert sim.engine._update.delta is None
        path = str(tmp_path / "battle.log")
        with BattleSimulation(20, seed=2, epoch_log=path) as sim:
            sim.run(2)
            assert sim.engine._update.delta is not None
            assert sim.engine.epoch_log.stats.delta_records == 2

    def test_auto_leaves_the_replica_feeds_on_deltas(self, tmp_path):
        """Regression: an evaluator-side delta budget once cut short
        the one diff the epoch log and the spectator feed consume; on a
        churning battle the diff bailed out and both fell back to
        snapshots.  The feeds get the whole diff; the evaluator
        rebuilds every tick."""
        ticks = 6
        with BattleSimulation(
            120, density=0.02, seed=3, spectators=True,
            epoch_log=str(tmp_path / "battle.log"),
        ) as sim:
            engine = sim.engine
            sub = SocketTransport.connect(
                engine.publisher.address, timeout=5.0
            )
            try:
                sim.run(ticks)
                for _ in range(ticks):
                    sub.recv()
            finally:
                sub.close()
            assert engine.epoch_log.stats.delta_records == ticks
            # the joiner's first update is its snapshot
            assert engine.publisher.stats.delta_sends == ticks - 1
            stats = engine.agg_eval.stats
            assert stats.get("rebuild_ticks") == ticks - 1

    def test_maintenance_time_recorded(self):
        sim = BattleSimulation(20, seed=2)
        stats = sim.run(3).tick_stats
        assert all(s.maintenance_time >= 0.0 for s in stats)
        assert any(s.maintenance_time > 0.0 for s in stats)


class TestLowChurnGame:
    """A game where most units idle: its ticks change few rows, and the
    engine plays exactly the naive and the process-worker game."""

    #: one unit in twenty walks toward its nearest enemy
    WALKER = """
    main(u) {
      (let t = NearestEnemy(u)) {
        if (CountEnemiesInRange(u, u.sight) > 0) then
          perform MoveInDirection(u, t.posx - u.posx, t.posy - u.posy);
      }
    }
    """
    #: the other nineteen perform nothing
    IDLE = "main(u) { }"
    TICKS = 6

    @staticmethod
    def world(schema):
        types = ("knight",) + ("archer",) * 19
        return make_env(schema, n=100, grid=40, seed=12, types=types)

    @staticmethod
    def signature(schema, env):
        return sorted(tuple(row[n] for n in schema.names) for row in env)

    def run(self, schema, **kwargs):
        registry = build_registry()
        game = GameDefinition(
            schema=schema,
            registry=registry,
            scripts={
                "knight": compile_script(self.WALKER, registry, schema),
                "archer": compile_script(self.IDLE, registry, schema),
            },
        )
        with game.engine(
            self.world(schema),
            lambda combined, rng, tick: example_41_postprocess(combined),
            **kwargs,
        ) as engine:
            engine.run(self.TICKS)
            return self.signature(schema, engine.env), engine.agg_eval

    def test_plays_the_same_game_naive_and_in_workers(self, schema):
        signature, evaluator = self.run(schema)
        assert signature != self.signature(schema, self.world(schema))
        assert evaluator.stats.get("rebuild_ticks") == self.TICKS - 1
        assert signature == self.run(schema, mode="naive")[0]
        workers = self.run(
            schema, num_shards=2, parallelism="processes", max_workers=2
        )[0]
        assert workers == signature


class TestOneRunnerPerScript:
    """The decision stage compiles one runner per selector value, for
    the script the game holds under it."""

    def test_runners_are_keyed_by_selector_value(self):
        with BattleSimulation(12, seed=0) as sim:
            sim.run(2)
            scripts = sim.game.scripts
            runners = sim.engine.decision._runners
            assert runners and set(runners) <= set(scripts)
            for unittype, runner in runners.items():
                assert runner.script is scripts[unittype]
