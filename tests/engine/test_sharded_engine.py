"""Shard equivalence: the staged pipeline must be bit-identical to the
flat engine across shard counts, shard keys
and parallelism modes -- the guarantee that makes sharding a pure
performance knob.

Also covers the determinism of the ⊕-merge order itself, and that
process workers run the engine's own game.
"""

from dataclasses import FrozenInstanceError

import pytest

from repro.api import GameDefinition, compile_script
from repro.engine.clock import EngineConfig, SimulationEngine
from repro.engine.postprocess import example_41_postprocess
from repro.env.combine import combine_all
from repro.env.schema import Attribute, AttributeType, Schema
from repro.env.sharding import ShardingError, make_sharder, partition_rows
from repro.env.table import EnvironmentTable
from repro.game.battle import BattleSimulation
from repro.game.scripts import build_registry
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

    # ``auto``: the engine's own index upkeep, a rebuild every tick
    @pytest.mark.parametrize("maintenance", ["auto"])
    def test_sharded_matches_flat_under_maintenance(self, maintenance):
        baseline = battle_signature(seed=7)
        for num_shards in (2, 3):
            got = battle_signature(
                seed=7, num_shards=num_shards, shard_by="spatial"
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


class TestOneGameEveryLayout:
    """Process workers run the engine's own game: a script edited into
    ``game.scripts`` before the first tick, or a custom game built from a
    :class:`GameDefinition` with no factory, plays the same in worker
    processes as serially."""

    #: player 0's archers charge their nearest enemy, player 1's retreat
    MODDED_ARCHER = """
    main(u) {
      (let t = NearestEnemy(u)) {
        if (u.player = 0) then
          perform MoveInDirection(u, t.posx - u.posx, t.posy - u.posy);
        else
          perform MoveInDirection(u, u.posx - t.posx, u.posy - t.posy);
      }
    }
    """

    def modded_signature(self, mod, **kwargs):
        with BattleSimulation(
            60, density=0.05, seed=21, resurrection=False, **kwargs
        ) as sim:
            game = sim.game
            if mod:
                game.scripts["archer"] = compile_script(
                    self.MODDED_ARCHER, game.registry, game.schema
                )
            sim.run(5)
            return sim.state_signature()

    def test_modded_battle_plays_the_mod_in_worker_processes(self):
        serial = self.modded_signature(True)
        assert serial != self.modded_signature(False)  # the mod matters
        got = self.modded_signature(
            True, num_shards=2, parallelism="processes"
        )
        assert got == serial

    #: the custom game's scripts are picked by player, not unit type
    CHASE = """
    main(u) {
      (let t = NearestEnemy(u)) {
        if (CountEnemiesInRange(u, u.range) > 0 and u.cooldown = 0) then
          perform FireAt(u, t.key);
        else
          perform MoveInDirection(u, t.posx - u.posx, t.posy - u.posy);
      }
    }
    """
    FLEE = """
    main(u) {
      (let ec = CentroidOfEnemies(u, u.sight)) {
        if (CountEnemiesInRange(u, u.sight) > 0) then
          perform MoveInDirection(u, u.posx - ec.x, u.posy - ec.y);
        else
          perform UseWeapon(u);
      }
    }
    """

    def custom_game(self, schema):
        registry = build_registry()
        return GameDefinition(
            schema=schema,
            registry=registry,
            scripts={
                0: compile_script(self.CHASE, registry, schema),
                1: compile_script(self.FLEE, registry, schema),
            },
            script_selector="player",
        )

    def custom_run(self, schema, **kwargs):
        game = self.custom_game(schema)
        env = make_env(schema, n=40, grid=24, seed=9)
        with game.engine(
            env,
            lambda combined, rng, tick: example_41_postprocess(combined),
            **kwargs,
        ) as engine:
            engine.run(4)
            return sorted(
                tuple(row[n] for n in schema.names) for row in engine.env
            )

    def test_custom_game_runs_in_worker_processes(self, schema):
        serial = self.custom_run(schema)
        got = self.custom_run(schema, num_shards=2, parallelism="processes")
        assert got == serial

    def test_custom_game_shards_spatially_over_its_own_rows(self, schema):
        """``shard_by="spatial"`` needs no extent: the engine divides the
        largest ``posx`` of its rows.  With no rows there is none."""
        flat = self.custom_run(schema)
        assert self.custom_run(schema, num_shards=2, shard_by="spatial") == flat
        with pytest.raises(ShardingError, match="positive extent"):
            self.custom_game(schema).engine(
                EnvironmentTable(schema), None, num_shards=2, shard_by="spatial"
            )


class TestEngineValidation:
    def test_bad_parallelism_rejected(self):
        with pytest.raises(ValueError):
            BattleSimulation(10, parallelism="fibers")

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            BattleSimulation(10, num_shards=0)

    def test_unknown_shard_key_rejected(self):
        with pytest.raises(ValueError, match="plyer"):
            BattleSimulation(40, num_shards=2, shard_by="plyer")

    def test_default_shard_key_is_the_schema_key(self):
        """``shard_by=None`` (the default) means the schema's key, so a
        flat engine over a schema keyed by ``"id"`` builds and ticks
        with a default config."""
        c = AttributeType.CONST
        schema = Schema(
            [Attribute("id", c), Attribute("unittype", c)], key="id"
        )
        registry = build_registry()
        game = GameDefinition(
            schema=schema,
            registry=registry,
            scripts={"idle": compile_script("main(u) { }", registry, schema)},
        )
        env = EnvironmentTable(schema)
        env.rows.extend({"id": k, "unittype": "idle"} for k in range(4))
        rows = list(env.rows)
        engine = SimulationEngine(
            env, game, lambda combined, rng, tick: combined, EngineConfig()
        )
        engine.run(2)
        assert engine.env.rows == rows

    def test_config_is_frozen(self):
        """The shard layout is fixed at construction: editing a live
        engine's config raises instead of being silently ignored."""
        with BattleSimulation(16, num_shards=2, seed=1) as sim:
            sim.tick()
            with pytest.raises(FrozenInstanceError):
                sim.engine.config.num_shards = 3
            assert sim.engine.config.num_shards == 2


class TestShardsSplitTheWorkNotTheIndexes:
    def test_sharded_engine_retains_the_flat_index_groups(self):
        """Every index spans all of E: a serial 3-shard engine builds
        exactly the flat engine's category groups, with no shard id in
        any key."""

        def retained(**kwargs):
            with BattleSimulation(48, density=0.02, seed=7, **kwargs) as sim:
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

    def _effect_tables(self, schema, env, num_shards):
        parts = partition_rows(
            env.rows, num_shards, make_sharder("key", num_shards)
        )
        tables = []
        for shard_id, part in enumerate(parts):
            table = EnvironmentTable(schema)
            for row in part:
                effect = dict(row)
                effect["damage"] = 1 + shard_id
                table.rows.append(effect)
            tables.append(table)
        return tables

    def test_combined_row_order_follows_flat_env(self, schema):
        env = make_env(schema, n=20, grid=40, seed=6)
        tables = self._effect_tables(schema, env, 4)
        combined = combine_all([env] + tables, schema)
        assert [r["key"] for r in combined.rows] == [
            r["key"] for r in env.rows
        ]

    def test_effect_table_order_is_a_pure_tie_break(self, schema):
        env = make_env(schema, n=20, grid=40, seed=6)
        tables = self._effect_tables(schema, env, 4)
        forward = combine_all([env] + tables, schema)
        reversed_ = combine_all([env] + tables[::-1], schema)
        # same values in the same row order: ⊕ is commutative and the
        # flat env seeds every group
        assert forward.rows == reversed_.rows

    def test_shard_partition_equals_flat_combine(self, schema):
        env = make_env(schema, n=20, grid=40, seed=8)
        flat_effects = EnvironmentTable(schema)
        tables = self._effect_tables(schema, env, 3)
        for table in tables:
            flat_effects.rows.extend(table.rows)
        assert combine_all([env, flat_effects], schema).multiset_equal(
            combine_all([env] + tables, schema)
        )
