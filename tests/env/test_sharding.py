"""Sharded environments: partitioning, shard functions, epoch updates."""

import pickle

import pytest

from repro.env.sharding import (
    UPDATE_DELTA,
    UPDATE_SNAPSHOT,
    EpochUpdate,
    ReplicaDelta,
    ReplicaTable,
    ShardingError,
    encode_replica_delta,
    make_sharder,
    partition_rows,
)
from repro.env.table import diff_by_key
from tests.conftest import make_env


class TestMakeSharder:
    def test_single_shard_is_constant(self, schema):
        shard_of = make_sharder("key", 1)
        env = make_env(schema, n=8)
        assert {shard_of(r) for r in env.rows} == {0}

    def test_hashed_attribute_covers_range_and_is_stable(self, schema):
        env = make_env(schema, n=64, grid=40, seed=2)
        shard_of = make_sharder("key", 4)
        ids = [shard_of(r) for r in env.rows]
        assert set(ids) <= {0, 1, 2, 3}
        assert len(set(ids)) > 1  # hashing actually spreads
        # pure function of the value: a second sharder agrees
        again = make_sharder("key", 4)
        assert ids == [again(r) for r in env.rows]

    def test_player_sharding_groups_by_player(self, schema):
        env = make_env(schema, n=16)
        shard_of = make_sharder("player", 8)
        by_player = {}
        for row in env.rows:
            by_player.setdefault(row["player"], set()).add(shard_of(row))
        for shards in by_player.values():
            assert len(shards) == 1

    def test_spatial_strips_are_ordered(self, schema):
        env = make_env(schema, n=40, grid=40, seed=3)
        shard_of = make_sharder("spatial", 4, extent=40)
        for row in env.rows:
            assert shard_of(row) == min(3, int(row["posx"] / 10))
        # out-of-range coordinates clamp instead of overflowing
        low = dict(env.rows[0], posx=-2)
        high = dict(env.rows[0], posx=41)
        assert shard_of(low) == 0
        assert shard_of(high) == 3

    def test_spatial_requires_extent(self):
        with pytest.raises(ShardingError):
            make_sharder("spatial", 4)

    def test_invalid_shard_count(self):
        with pytest.raises(ShardingError):
            make_sharder("key", 0)


class TestShardedEnvironment:
    """Partitioning E into shards: the shards are views of E's rows."""

    def test_partition_shares_rows_and_preserves_order(self, schema):
        env = make_env(schema, n=30, grid=40, seed=1)
        shard_of = make_sharder("key", 3)
        parts = partition_rows(env.rows, 3, shard_of)
        assert len(parts) == 3
        assert sum(len(part) for part in parts) == len(env)
        seen = []
        for shard_id, part in enumerate(parts):
            previous_index = -1
            for row in part:
                assert shard_of(row) == shard_id
                # identity, not copies: shards are views of E
                index = next(
                    i for i, r in enumerate(env.rows) if r is row
                )
                assert index > previous_index  # flat order preserved
                previous_index = index
                seen.append(row)
        assert len(seen) == len(env)
        assert {id(row) for row in seen} == {id(row) for row in env.rows}

    def test_single_shard_is_the_flat_table(self, schema):
        env = make_env(schema, n=10)
        parts = partition_rows(env.rows, 1, make_sharder("key", 1))
        assert parts == [env.rows]

    def test_bad_shard_function_rejected(self, schema):
        env = make_env(schema, n=4)
        with pytest.raises(ShardingError):
            partition_rows(env.rows, 2, lambda row: 7)


def test_partition_rows_helper(schema):
    env = make_env(schema, n=12)
    shard_of = make_sharder("key", 4)
    parts = partition_rows(env.rows, 4, shard_of)
    assert sum(len(p) for p in parts) == 12
    for shard_id, part in enumerate(parts):
        assert all(shard_of(r) == shard_id for r in part)
    assert partition_rows(env.rows, 1, shard_of) == [env.rows]
    # a negative id must not wrap around into the last shard
    with pytest.raises(ShardingError):
        partition_rows(env.rows, 4, lambda row: -1)
    with pytest.raises(ShardingError):
        partition_rows(env.rows, 4, lambda row: 4)


class TestEpochUpdate:
    def delta(self, base_epoch, epoch):
        return ReplicaDelta(base_epoch=base_epoch, epoch=epoch, new_size=0)

    def test_rejects_a_delta_to_another_epoch(self):
        with pytest.raises(ValueError, match="epoch 4"):
            EpochUpdate(3, [], self.delta(3, 4))

    def test_chains_only_from_the_delta_base(self):
        update = EpochUpdate(3, [], self.delta(2, 3))
        assert update.chains_from(2)
        assert not update.chains_from(3)
        assert not EpochUpdate(3, []).chains_from(2)

    def test_blobs_are_pickled_once(self, schema):
        rows = make_env(schema, n=4).rows
        update = EpochUpdate(3, rows, self.delta(2, 3))
        assert update.snapshot_blob() is update.snapshot_blob()
        assert update.delta_blob() is update.delta_blob()
        assert pickle.loads(update.snapshot_blob()) == (
            UPDATE_SNAPSHOT, 3, rows
        )
        assert pickle.loads(update.delta_blob()) == (
            UPDATE_DELTA, self.delta(2, 3)
        )
        with pytest.raises(ValueError, match="no delta"):
            EpochUpdate(3, rows).delta_blob()


class TestReplicaTableApply:
    """``ReplicaTable.apply`` is the one decoder of an update blob."""

    def test_snapshot_then_delta(self, schema):
        old = make_env(schema, n=6)
        new = old.copy()
        new.rows[1]["health"] -= 3
        rd = encode_replica_delta(
            diff_by_key(old, new),
            [row["key"] for row in old.rows],
            [row["key"] for row in new.rows],
            key_attr="key",
            base_epoch=1,
            epoch=2,
        )
        table = ReplicaTable("key")
        snapshot = EpochUpdate(1, old.rows).snapshot_blob()
        table.apply(pickle.loads(snapshot))
        assert (table.epoch, table.rows) == (1, old.rows)
        held = list(table.rows)
        delta_blob = EpochUpdate(2, new.rows, rd).delta_blob()
        table.apply(pickle.loads(delta_blob))
        assert (table.epoch, table.rows) == (2, new.rows)
        # only the changed row is a new object
        assert [a is b for a, b in zip(table.rows, held)] == [
            i != 1 for i in range(6)
        ]

    def test_unknown_tag_is_rejected(self):
        with pytest.raises(ShardingError, match="unknown update tag"):
            ReplicaTable("key").apply(("bogus", 1))
