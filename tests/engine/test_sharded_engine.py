"""Shard equivalence: the staged pipeline must be bit-identical to the
flat engine across shard counts, shard keys, maintenance modes, and
parallelism modes -- the guarantee that makes sharding a pure
performance knob.

Also covers the determinism of the ⊕-merge order itself and the
shard-aware algebra executor.
"""

import pytest

from repro.algebra.executor import execute_plan, execute_plan_sharded
from repro.algebra.rewrite import optimize
from repro.algebra.translate import translate_script
from repro.engine.clock import EngineConfig
from repro.env.combine import combine_all
from repro.env.sharding import ShardedEnvironment, ShardingError, make_sharder
from repro.env.table import EnvironmentTable
from repro.game.battle import BattleSimulation
from repro.sgl.interp import NaiveAggregateEvaluator
from repro.sgl.parser import parse_script
from tests.conftest import make_env


def battle_signature(ticks=4, **kwargs):
    with BattleSimulation(48, density=0.02, **kwargs) as sim:
        sim.run(ticks)
        return sim.state_signature()


class TestShardEquivalence:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("shard_by", ["key", "spatial", "player"])
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_sharded_matches_flat(self, seed, shard_by, num_shards):
        baseline = battle_signature(seed=seed)
        got = battle_signature(
            seed=seed, num_shards=num_shards, shard_by=shard_by
        )
        assert got == baseline

    @pytest.mark.parametrize(
        "maintenance", ["rebuild", "incremental", "auto"]
    )
    def test_sharded_matches_flat_under_maintenance(self, maintenance):
        baseline = battle_signature(seed=7, index_maintenance=maintenance)
        assert baseline == battle_signature(seed=7)  # modes agree flat
        for num_shards in (2, 3):
            got = battle_signature(
                seed=7,
                num_shards=num_shards,
                shard_by="spatial",
                index_maintenance=maintenance,
            )
            assert got == baseline

    def test_naive_mode_shards(self):
        baseline = battle_signature(seed=5, mode="naive")
        got = battle_signature(seed=5, mode="naive", num_shards=3)
        assert got == baseline

    def test_process_parallelism_matches_serial(self):
        baseline = battle_signature(ticks=3, seed=17)
        got = battle_signature(
            ticks=3,
            seed=17,
            num_shards=2,
            parallelism="processes",
            max_workers=2,
        )
        assert got == baseline


class TestEngineValidation:
    def test_bad_parallelism_rejected(self):
        with pytest.raises(ValueError):
            BattleSimulation(10, parallelism="fibers")

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            BattleSimulation(10, num_shards=0)

    def test_bad_shard_count_mid_run_keeps_the_layout(self):
        baseline = battle_signature(seed=3)
        with BattleSimulation(48, density=0.02, seed=3, num_shards=2) as sim:
            sim.run(2)
            engine = sim.engine
            layout, shard_of = engine._shard_conf, engine.shard_of
            engine.config.num_shards = 0
            with pytest.raises(ShardingError):
                sim.tick()
            assert engine.tick_count == 2
            assert engine._shard_conf == layout
            assert engine.shard_of is shard_of
            engine.config.num_shards = 2
            sim.run(2)
            assert sim.state_signature() == baseline

    def test_processes_requires_worker_factory(self, schema, registry):
        from repro.engine.clock import SimulationEngine

        env = make_env(schema, n=4)
        with pytest.raises(ValueError, match="worker_factory"):
            SimulationEngine(
                env,
                registry,
                lambda row: None,
                lambda combined, rng, tick: combined,
                EngineConfig(parallelism="processes", num_shards=2),
            )

    def test_tick_stats_record_shards(self):
        with BattleSimulation(16, num_shards=3, seed=1) as sim:
            stats = sim.tick()
        assert stats.shards == 3


class TestShardsSplitTheWorkNotTheIndexes:
    def test_sharded_engine_retains_the_flat_index_groups(self):
        """Every index spans all of E: a serial 3-shard engine patching
        its indexes retains exactly the flat engine's category groups,
        with no shard id in any key."""

        def retained(**kwargs):
            with BattleSimulation(
                48, density=0.02, seed=7, index_maintenance="incremental",
                **kwargs,
            ) as sim:
                sim.run(3)
                evaluator = sim.engine.agg_eval
                return {
                    kind: {
                        name: set(index.groups)
                        for name, index in indexes.items()
                    }
                    for kind, indexes in (
                        ("divisible", evaluator._div_index),
                        ("nearest", evaluator._kd_index),
                    )
                }

        flat = retained()
        assert flat["divisible"] and flat["nearest"]  # both kinds retained
        assert retained(num_shards=3, shard_by="spatial") == flat


class TestMergeDeterminism:
    """⊕-merge order: shard tables combine in ascending shard id, the
    output row order comes from the flat environment, and permuting the
    effect-table order cannot change any combined value."""

    def _effect_tables(self, schema, env, sharded):
        tables = []
        for shard_id, shard in enumerate(sharded):
            table = EnvironmentTable(schema)
            for row in shard.rows:
                effect = dict(row)
                effect["damage"] = 1 + shard_id
                table.rows.append(effect)
            tables.append(table)
        return tables

    def test_combined_row_order_follows_flat_env(self, schema):
        env = make_env(schema, n=20, grid=40, seed=6)
        sharded = ShardedEnvironment(env, 4, make_sharder("key", 4))
        tables = self._effect_tables(schema, env, sharded)
        combined = combine_all([env] + tables, schema)
        assert [r["key"] for r in combined.rows] == [
            r["key"] for r in env.rows
        ]

    def test_effect_table_order_is_a_pure_tie_break(self, schema):
        env = make_env(schema, n=20, grid=40, seed=6)
        sharded = ShardedEnvironment(env, 4, make_sharder("key", 4))
        tables = self._effect_tables(schema, env, sharded)
        forward = combine_all([env] + tables, schema)
        reversed_ = combine_all([env] + tables[::-1], schema)
        # same values in the same row order: ⊕ is commutative and the
        # flat env seeds every group
        assert forward.rows == reversed_.rows

    def test_shard_partition_equals_flat_combine(self, schema):
        env = make_env(schema, n=20, grid=40, seed=8)
        flat_effects = EnvironmentTable(schema)
        sharded = ShardedEnvironment(env, 3, make_sharder("key", 3))
        tables = self._effect_tables(schema, env, sharded)
        for table in tables:
            flat_effects.rows.extend(table.rows)
        assert combine_all([env, flat_effects], schema).multiset_equal(
            combine_all([env] + tables, schema)
        )


class TestShardedExecutor:
    SOURCE = """
    main(u) {
      (let c = CountEnemiesInRange(u, u.sight)) {
        if (c > 0 and u.cooldown = 0) then
          perform FireAt(u, NearestEnemy(u).key);
        if (c = 0) then
          perform MoveInDirection(u, 1, 0)
      }
    }
    """

    def test_matches_flat_execution(self, registry, schema):
        env = make_env(schema, n=18, grid=30, seed=2)
        script = parse_script(self.SOURCE)
        plan = optimize(translate_script(script, registry), registry)
        rng = lambda row, i: (row["key"] * 31 + i) & 0xFFFF  # noqa: E731

        flat = execute_plan(
            plan, env, registry, NaiveAggregateEvaluator(), rng
        )
        for num_shards, shard_by in ((2, "key"), (3, "player")):
            sharded = ShardedEnvironment(
                env, num_shards, make_sharder(shard_by, num_shards)
            )
            got = execute_plan_sharded(
                plan, sharded, registry, NaiveAggregateEvaluator(), rng
            )
            assert got == flat
            # deterministic output order, not just multiset equality
            assert got.rows == flat.rows

    def test_elided_e_plan_is_multiset_equal(self, registry, schema):
        """A plan whose E the optimizer elides has no env seed for the
        output order: values must still match the flat executor exactly
        (the documented contract is multiset equality there)."""
        env = make_env(schema, n=12, grid=30, seed=4)
        script = parse_script("main(u) { perform MoveInDirection(u, 1, 0) }")
        plan = optimize(translate_script(script, registry), registry)
        assert not plan.include_e  # the premise of this test
        rng = lambda row, i: 0  # noqa: E731
        flat = execute_plan(
            plan, env, registry, NaiveAggregateEvaluator(), rng
        )
        sharded = ShardedEnvironment(env, 3, make_sharder("key", 3))
        got = execute_plan_sharded(
            plan, sharded, registry, NaiveAggregateEvaluator(), rng
        )
        assert got == flat  # multiset equality
        assert sorted(r["key"] for r in got.rows) == sorted(
            r["key"] for r in flat.rows
        )
