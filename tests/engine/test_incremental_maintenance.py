"""Delta-driven index maintenance in the indexed evaluator and engine.

Covers the maintenance policy (rebuild | incremental | auto), the
equivalence of patched structures with freshly built ones, change
capture in the tick loop, and the id-reuse regression in the script
compilation cache.
"""

import copy

import pytest

from repro.engine.clock import EngineConfig
from repro.engine.evaluator import (
    _PATCH_FRACTION,
    IndexedEvaluator,
    NaiveEvaluator,
)
from repro.env.table import EnvironmentTable, diff_by_key
from repro.game.battle import BattleSimulation
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

    @pytest.mark.parametrize(
        "maintenance, n, movers",
        # "auto" only patches deltas sized under its fraction
        [("incremental", 30, 4), ("auto", 60, 2)],
    )
    def test_patched_indexes_match_naive_across_generations(
        self, schema, registry, maintenance, n, movers
    ):
        env = make_env(schema, n=n, grid=30, seed=21)
        evaluator = IndexedEvaluator(registry, maintenance=maintenance)
        naive = NaiveEvaluator()
        evaluator.begin_tick(env)
        self.probe_all(evaluator, env, registry)  # build the structures

        for step in range(1, 5):
            new_env = evolve(env, step, movers)
            delta = diff_by_key(env, new_env)
            assert delta is not None and delta.changed > 0
            if maintenance == "auto":
                assert delta.fraction <= _PATCH_FRACTION
            evaluator.begin_tick(new_env, delta=delta)
            env = new_env
            got = self.probe_all(evaluator, env, registry)
            expected = self.probe_all(naive, env, registry)
            assert got == expected
        assert evaluator.stats.get("delta_ticks", 0) == 4

    @pytest.mark.parametrize(
        "maintenance, n, movers", [("incremental", 30, 4), ("auto", 60, 2)]
    )
    def test_shared_index_mixing_avg_and_stddev(
        self, schema, registry, maintenance, n, movers
    ):
        env = make_env(schema, n=n, grid=30, seed=22)
        evaluator = IndexedEvaluator(registry, maintenance=maintenance)
        naive = NaiveEvaluator()
        evaluator.begin_tick(env)
        self.probe_all(evaluator, env, registry, SHARED_CALLS)
        (shared,) = evaluator._div_index.values()
        for step in range(1, 5):
            new_env = evolve(env, step, movers)
            evaluator.begin_tick(new_env, delta=diff_by_key(env, new_env))
            env = new_env
            got = self.probe_all(evaluator, env, registry, SHARED_CALLS)
            assert got == self.probe_all(naive, env, registry, SHARED_CALLS)
        assert evaluator.stats.get("delta_ticks", 0) == 4
        # one index for all three readers, patched and never rebuilt
        assert list(evaluator._div_index.values()) == [shared]

    def test_auto_rebuilds_above_threshold(self, schema, registry):
        env = make_env(schema, n=20, grid=30, seed=3)
        evaluator = IndexedEvaluator(registry, maintenance="auto")
        evaluator.begin_tick(env)
        self.probe_all(evaluator, env, registry)
        new_env = evolve(env, 1)  # a quarter of the rows move
        delta = diff_by_key(env, new_env)
        assert delta.fraction > _PATCH_FRACTION
        evaluator.begin_tick(new_env, delta=delta)
        assert evaluator.stats.get("rebuild_ticks") == 1
        assert not evaluator._div_index and not evaluator._kd_index

    def test_auto_applies_below_threshold(self, schema, registry):
        env = make_env(schema, n=30, grid=30, seed=4)
        evaluator = IndexedEvaluator(registry, maintenance="auto")
        evaluator.begin_tick(env)
        self.probe_all(evaluator, env, registry)
        new_env = env.copy()
        new_env.rows[0]["posx"] = (new_env.rows[0]["posx"] + 1) % 30
        delta = diff_by_key(env, new_env)
        assert 0 < delta.fraction <= _PATCH_FRACTION
        evaluator.begin_tick(new_env, delta=delta)
        assert evaluator.stats.get("delta_ticks") == 1
        assert evaluator._div_index  # structures survived

    def test_missing_delta_forces_rebuild(self, schema, registry):
        env = make_env(schema, n=10, seed=5)
        evaluator = IndexedEvaluator(registry, maintenance="incremental")
        evaluator.begin_tick(env)
        self.probe_all(evaluator, env, registry)
        evaluator.begin_tick(env, delta=None)
        assert not evaluator._div_index
        assert evaluator.stats.get("rebuild_ticks") == 1

    def test_overlay_budget_drops_structures(self, schema, registry):
        env = make_env(schema, n=20, grid=30, seed=6)
        evaluator = IndexedEvaluator(registry, maintenance="incremental")
        evaluator.begin_tick(env)
        self.probe_all(evaluator, env, registry)
        # churn far past the budget: every row moves for many generations
        for step in range(1, 40):
            new_env = evolve(env, step)
            delta = diff_by_key(env, new_env)
            evaluator.begin_tick(new_env, delta=delta)
            env = new_env
            self.probe_all(evaluator, env, registry)
        assert evaluator.stats.get("overlay_rebuilds", 0) > 0

    def test_cancelling_churn_retains_divisible_structures(
        self, schema, registry
    ):
        # one unit oscillating between two cells leaves no live overlay
        # residue, so sustained low churn must never force a divisible
        # rebuild (the policy gauges live weight, not cumulative ops)
        env = make_env(schema, n=30, grid=30, seed=8)
        evaluator = IndexedEvaluator(registry, maintenance="incremental")
        evaluator.begin_tick(env)
        self.probe_all(evaluator, env, registry)
        div_ids = {n: id(i) for n, i in evaluator._div_index.items()}
        assert div_ids
        for step in range(80):
            new_env = env.copy()
            row = new_env.rows[0]
            row["posx"] += 1 if step % 2 == 0 else -1
            delta = diff_by_key(env, new_env)
            evaluator.begin_tick(new_env, delta=delta)
            env = new_env
        assert {n: id(i) for n, i in evaluator._div_index.items()} == div_ids
        got = self.probe_all(evaluator, env, registry)
        assert got == self.probe_all(NaiveEvaluator(), env, registry)

    def test_invalid_maintenance_rejected(self, registry):
        with pytest.raises(ValueError):
            IndexedEvaluator(registry, maintenance="sometimes")


class TestEngineWiring:
    def test_invalid_maintenance_rejected(self):
        with pytest.raises(ValueError):
            BattleSimulation(10, index_maintenance="bogus")
        with pytest.raises(ValueError):
            EngineConfig(index_maintenance="bogus") and BattleSimulation(
                10, index_maintenance="bogus"
            )

    def test_naive_mode_ignores_maintenance(self):
        sim = BattleSimulation(
            16, mode="naive", seed=1, index_maintenance="incremental"
        )
        sim.run(2)  # must not attempt capture / delta plumbing
        assert sim.summary.ticks == 2

    def test_delta_captured_and_consumed(self):
        sim = BattleSimulation(20, seed=2, index_maintenance="incremental")
        sim.tick()
        assert sim.engine._pending_delta is not None
        sim.tick()
        stats = sim.engine.agg_eval.stats
        assert stats.get("delta_ticks", 0) >= 1

    def test_rebuild_mode_skips_capture(self):
        sim = BattleSimulation(20, seed=2, index_maintenance="rebuild")
        sim.run(2)
        assert sim.engine._pending_delta is None

    def test_auto_leaves_the_replica_feeds_on_deltas(self, tmp_path):
        """Regression: "auto" passed its delta budget to the one diff the
        epoch log and the spectator feed also consume; on a churning
        battle the diff bailed out and both fell back to snapshots."""
        ticks = 6
        log_bytes = {}
        for maintenance in ("rebuild", "auto"):
            with BattleSimulation(
                120, density=0.02, seed=3, index_maintenance=maintenance,
                spectators=True,
                epoch_log=str(tmp_path / f"{maintenance}.log"),
            ) as sim:
                engine = sim.engine
                sub = SocketTransport.connect(
                    engine.publisher.address, timeout=5.0
                )
                try:
                    stats = sim.run(ticks).tick_stats
                    for _ in range(ticks):
                        sub.recv()
                finally:
                    sub.close()
                log_bytes[maintenance] = [s.log_bytes for s in stats]
                assert engine.epoch_log.stats.delta_records == ticks
                # the joiner's first update is its snapshot
                assert engine.publisher.stats.delta_sends == ticks - 1
        assert engine.agg_eval.stats.get("rebuild_ticks") > 0  # it churns
        assert log_bytes["auto"] == log_bytes["rebuild"]

    def test_maintenance_time_recorded(self):
        sim = BattleSimulation(20, seed=2, index_maintenance="incremental")
        stats = sim.run(3).tick_stats
        assert all(s.maintenance_time >= 0.0 for s in stats)
        assert any(s.maintenance_time > 0.0 for s in stats)


class TestScriptCachePinning:
    """Regression: the runner cache was keyed by ``id(script)`` without
    referencing the script, so a garbage-collected script's recycled id
    could silently serve another script's runner.  The cache now pins
    the script, making id reuse impossible while the entry lives."""

    def test_cache_entries_pin_their_scripts(self):
        sim = BattleSimulation(12, seed=0)
        sim.run(2)
        runners = sim.engine._runners
        assert runners
        for cache_key, (script, runner) in runners.items():
            assert id(script) == cache_key
            assert runner.script is script

    def test_fresh_script_objects_per_call_are_safe(self):
        baseline = BattleSimulation(16, seed=3, density=0.05)
        fresh = BattleSimulation(16, seed=3, density=0.05)
        scripts = fresh.scripts

        def fresh_script_for(row):
            # a worst-case script_for: a brand-new AST object per call,
            # so every id is new and old ids become reusable
            return copy.deepcopy(scripts[row["unittype"]])

        fresh.engine.script_for = fresh_script_for
        for _ in range(3):
            baseline.tick()
            fresh.tick()
        assert baseline.state_signature() == fresh.state_signature()

    def test_cache_growth_is_bounded(self, monkeypatch):
        import repro.engine.clock as clock

        monkeypatch.setattr(clock, "_RUNNER_CACHE_MAX", 8)
        baseline = BattleSimulation(20, seed=4, density=0.05)
        sim = BattleSimulation(20, seed=4, density=0.05)
        scripts = sim.scripts
        sim.engine.script_for = lambda row: copy.deepcopy(
            scripts[row["unittype"]]
        )
        for _ in range(2):  # 40 fresh scripts churn through an 8-slot cache
            baseline.tick()
            sim.tick()
        assert len(sim.engine._runners) <= 8
        assert baseline.state_signature() == sim.state_signature()
