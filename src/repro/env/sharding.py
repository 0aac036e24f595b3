"""Sharded environments: partitioning ``E`` for the parallel tick pipeline.

The combination operator ``⊕`` is associative and commutative (Eq. 3),
so a tick's effect tables can be computed per-partition of ``E`` and
merged in any fixed order.  This module provides the partitioning half
of that bargain:

* :func:`make_sharder` builds a ``row -> shard id`` function from a
  configurable shard key -- a hashed attribute (unit key, player) or a
  spatial strip of the map;
* :func:`partition_rows` splits a row sequence into per-shard lists.
  Each shard keeps the flat table's row dicts (no copies) in the flat
  table's row order, which is what keeps sharded trajectories
  bit-identical to the single-shard engine: row *values* entering ``⊕``
  are order-independent and row *order* is always taken from the flat
  table.  The engine's stage 0 and the shard workers both call it;
* :class:`ReplicaDelta` is the epoch-versioned wire form of the
  engine's per-tick change capture (a
  :class:`~repro.env.table.TableDelta`): the compact, picklable change
  set a coordinator ships to replica-holding workers instead of
  re-broadcasting the full row set.
  :func:`encode_replica_delta` compresses a ``TableDelta`` (deletes
  become keys, updates become sparse attribute patches, the row order is
  shipped only when it cannot be predicted);
  :func:`apply_replica_delta` replays it against a replica and
  raises :class:`StaleReplicaError` on an epoch mismatch, the signal to
  fall back to a snapshot;
* :class:`EpochUpdate` is one epoch's post-tick state as every replica
  feed consumes it -- the worker pool, the spectator publisher and the
  epoch log are each handed the same object, so the epoch's delta and
  snapshot are each pickled at most once however many holders receive
  them;
* :class:`ReplicaTable` packages the receiving side of that protocol --
  the keyed replica of ``E`` every holder keeps (row order, key map,
  held epoch) plus :meth:`ReplicaTable.apply`, the one decoder of an
  update blob, and the invalidation path.  The shard worker pool
  (``repro.engine.shardexec``), the spectator read replicas
  (``repro.serve``) and the epoch history and log readers
  (``repro.persist``) all maintain their copies of ``E`` through it.

The engine (``repro.engine.clock``) partitions at tick start and runs
the decision stage shard-at-a-time (serially or in parallel workers).
A shard decides which units' decisions run together and where; the
indexes those decisions probe always span the whole of ``E``.  The shard
layout is fixed when the engine is built, so nothing on the replica
protocol carries it: every holder's replica is the flat ``E``.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import (
    Callable,
    Iterable,
    Mapping,
    Sequence,
    TypeVar,
    cast,
)

from .table import TableDelta

Row = Mapping[str, object]
_R = TypeVar("_R", bound=Row)
#: A shard function: row -> shard id in ``range(num_shards)``.
ShardFn = Callable[[Row], int]


class ShardingError(ValueError):
    """Raised for invalid shard configurations."""


class StaleReplicaError(ShardingError):
    """A delta's base epoch does not match the replica's epoch.

    Raised by :func:`apply_replica_delta` when a replica holder is asked
    to apply a change set on top of an environment version it does not
    hold -- the holder must request (or be sent) a full snapshot.
    """


def make_sharder(
    shard_by: str,
    num_shards: int,
    *,
    extent: float | None = None,
    x_attr: str = "posx",
) -> ShardFn:
    """Build a deterministic ``row -> shard id`` function.

    *shard_by* selects the partitioning scheme:

    * ``"spatial"`` -- split the map into ``num_shards`` vertical strips
      of width ``extent / num_shards`` over *x_attr* (requires a
      positive *extent*; the engine passes the largest coordinate of
      its starting rows, and a row at or beyond it joins the top strip).
      Spatially local shards keep most of a unit's interactions
      shard-local, the precondition for future distributed workers;
    * any attribute name (``"key"``, ``"player"``, ``"unittype"``, ...)
      -- hash the attribute value with the process-stable
      :func:`~repro.engine.rng.stable_hash` and take it modulo
      ``num_shards``.  Stable hashing matters: ``PYTHONHASHSEED`` must
      never change which shard a unit lands in, or parallel worker
      processes would disagree with the parent about the partition.

    The returned function is pure and cheap (no allocation).
    """
    if num_shards < 1:
        raise ShardingError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards == 1:
        return lambda row: 0
    if shard_by == "spatial":
        if extent is None or extent <= 0:
            raise ShardingError(
                f"shard_by='spatial' needs a positive extent (the largest "
                f"{x_attr!r} of the engine's rows), got {extent!r}"
            )
        width = extent / num_shards
        top = num_shards - 1

        def spatial_shard(
            row: Row, _w: float = width, _x: str = x_attr, _top: int = top
        ) -> int:
            shard = int(cast(float, row[_x]) / _w)
            if shard < 0:
                return 0
            return shard if shard < _top else _top

        return spatial_shard

    # hashed attribute: lazy import keeps env free of an engine import
    # at module load (engine.clock itself imports env.table)
    from ..engine.rng import stable_hash

    def hashed_shard(
        row: Row,
        _attr: str = shard_by,
        _n: int = num_shards,
        _hash: Callable[[object], int] = stable_hash,
    ) -> int:
        return _hash(row[_attr]) % _n

    return hashed_shard


def partition_rows(
    rows: Sequence[_R], num_shards: int, shard_of: ShardFn
) -> list[list[_R]]:
    """Partition *rows* into per-shard lists, keeping their order.

    Raises :class:`ShardingError` when *shard_of* returns an id outside
    ``range(num_shards)`` -- a negative id must not wrap around into the
    last shard.
    """
    if num_shards < 1:
        raise ShardingError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards == 1:
        return [list(rows)]
    out: list[list[_R]] = [[] for _ in range(num_shards)]
    for row in rows:
        shard = shard_of(row)
        if not 0 <= shard < num_shards:
            raise ShardingError(
                f"shard function returned {shard!r}; expected "
                f"0..{num_shards - 1}"
            )
        out[shard].append(row)
    return out


# ---------------------------------------------------------------------------
# Replica deltas: the epoch-versioned wire protocol for replica holders
# ---------------------------------------------------------------------------


@dataclass
class ReplicaDelta:
    """Compact, epoch-stamped change set for a replica of ``E``.

    A replica holder at ``base_epoch`` applies this to reach ``epoch``.
    The encoding is built for the wire, not for in-memory maintenance:

    * ``deleted_keys`` carries only keys -- the replica owns the old row
      objects, which is exactly what its retained index structures hold;
    * ``updated`` carries ``(key, patch)`` pairs where *patch* maps only
      the attributes whose values changed (a moving unit ships its new
      position and nothing else); an attribute the new row dropped
      entirely is shipped as the :data:`REMOVED_ATTR` sentinel, since
      rows are plain dicts and custom mechanics may remove attributes;
    * ``order`` is ``None`` whenever the new row order is predictable
      from the old one (drop deletes in place, apply updates in place,
      append inserts); when only the *insert positions* defy prediction
      -- mechanics that splice new rows into the middle of ``E`` --
      the compact ``insert_at`` patch ships ``(key, final index)`` pairs
      instead of the whole order; only genuinely order-scrambling ticks
      -- e.g. the battle's resurrection rule moving revived units to the
      end of ``E`` -- ship the full key order.
    """

    base_epoch: int
    epoch: int
    #: Row count of the post-change table (sanity check + delta fraction).
    new_size: int
    inserted: list[dict[str, object]] = field(default_factory=list)
    deleted_keys: list[object] = field(default_factory=list)
    #: ``(key, {attr: new value})`` sparse patches for changed rows.
    updated: list[tuple[object, dict[str, object]]] = field(
        default_factory=list
    )
    #: Full new key order, or ``None`` when predictable (see above).
    order: list[object] | None = None
    #: Compact order patch: ``(inserted key, final index)`` pairs in
    #: ascending index order, for the inserts-splice-mid-order case.
    #: Mutually exclusive with ``order``; ``None`` means inserts append.
    insert_at: list[tuple[object, int]] | None = None

    @property
    def changed(self) -> int:
        return len(self.inserted) + len(self.deleted_keys) + len(self.updated)

    def __reduce__(self) -> tuple[object, ...]:
        # positional reconstruction: the default dataclass pickle ships
        # every field *name* alongside its value, which at quiet-tick
        # delta sizes costs more wire than the delta content itself
        return (
            ReplicaDelta,
            (
                self.base_epoch,
                self.epoch,
                self.new_size,
                self.inserted,
                self.deleted_keys,
                self.updated,
                self.order,
                self.insert_at,
            ),
        )


def _predicted_order(
    old_order: Sequence[object],
    deleted_keys: Iterable[object],
    inserted_keys: Iterable[object],
) -> list[object]:
    """The new key order assuming deletes drop in place, updates hold
    their position, and inserts append -- the common quiet-tick shape."""
    dropped = set(deleted_keys)
    out = [k for k in old_order if k not in dropped]
    out.extend(inserted_keys)
    return out


_MISSING = object()


class _RemovedAttr:
    """Pickle-stable patch sentinel: the attribute was deleted.

    Rows are plain dicts, so a custom game's mechanics may drop an
    attribute between ticks; a patch built only from the new row's items
    could not express that.  Matched by ``isinstance`` (never identity)
    because pickling creates a fresh instance in the replica holder.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<removed attr>"


REMOVED_ATTR = _RemovedAttr()


def encode_replica_delta(
    delta: TableDelta,
    old_order: Sequence[object],
    new_order: Sequence[object],
    *,
    key_attr: str,
    base_epoch: int,
    epoch: int,
) -> ReplicaDelta:
    """Compress a keyed :class:`~repro.env.table.TableDelta` for the wire.

    *old_order* / *new_order* are the key sequences of the pre- and
    post-change tables; the order patch is elided when prediction
    reproduces *new_order* exactly.
    """
    updated: list[tuple[object, dict[str, object]]] = []
    for old, new in delta.updated:
        patch = {a: v for a, v in new.items() if old.get(a, _MISSING) != v}
        for attr in old:
            if attr not in new:
                patch[attr] = REMOVED_ATTR
        updated.append((old[key_attr], patch))
    deleted_keys = [row[key_attr] for row in delta.deleted]
    inserted = list(delta.inserted)
    new_order = list(new_order)
    inserted_keys = [row[key_attr] for row in inserted]
    predicted = _predicted_order(old_order, deleted_keys, inserted_keys)
    order: list[object] | None = None
    insert_at: list[tuple[object, int]] | None = None
    if predicted != new_order:
        # second chance: surviving rows kept their relative order and
        # only the *inserts* landed mid-order -- ship the splice
        # positions, not the whole key order
        core = _predicted_order(old_order, deleted_keys, ())
        inserted_set = set(inserted_keys)
        if [k for k in new_order if k not in inserted_set] == core:
            insert_at = [
                (k, i) for i, k in enumerate(new_order) if k in inserted_set
            ]
        else:
            order = new_order
    return ReplicaDelta(
        base_epoch=base_epoch,
        epoch=epoch,
        new_size=delta.base_size,
        inserted=inserted,
        deleted_keys=deleted_keys,
        updated=updated,
        order=order,
        insert_at=insert_at,
    )


def apply_replica_delta(
    rd: ReplicaDelta,
    replica: dict[object, dict[str, object]],
    order: list[object],
    *,
    key_attr: str,
    replica_epoch: int,
) -> list[object]:
    """Replay *rd* against a keyed replica, returning the new row order.

    Replaced rows are fresh dicts; the old objects are never mutated in
    place, so a holder may keep an earlier epoch's rows by reference.

    Raises :class:`StaleReplicaError` when the replica is not at
    ``rd.base_epoch`` or its contents drifted (unknown keys, size
    mismatch); the caller falls back to a snapshot.
    """
    if replica_epoch != rd.base_epoch:
        raise StaleReplicaError(
            f"replica at epoch {replica_epoch}, delta applies to "
            f"{rd.base_epoch}"
        )
    try:
        for key in rd.deleted_keys:
            del replica[key]
        for key, patch in rd.updated:
            old = replica[key]
            new = dict(old)
            for attr, value in patch.items():
                if isinstance(value, _RemovedAttr):
                    new.pop(attr, None)
                else:
                    new[attr] = value
            replica[key] = new
    except KeyError as exc:
        raise StaleReplicaError(f"replica is missing row {exc}") from exc
    inserted_keys = []
    for row in rd.inserted:
        key = row[key_attr]
        if key in replica:
            raise StaleReplicaError(f"insert of {key!r} already in replica")
        replica[key] = row
        inserted_keys.append(key)
    if len(replica) != rd.new_size:
        raise StaleReplicaError(
            f"replica holds {len(replica)} rows after delta, "
            f"coordinator expected {rd.new_size}"
        )
    if rd.order is not None:
        new_order = list(rd.order)
    elif rd.insert_at:
        # splice inserts at their recorded final positions; ascending
        # index order makes sequential list.insert land each key exactly
        # where the coordinator's flat order has it
        new_order = _predicted_order(order, rd.deleted_keys, ())
        for key, index in rd.insert_at:
            new_order.insert(index, key)
    else:
        new_order = _predicted_order(order, rd.deleted_keys, inserted_keys)
    return new_order


#: Epoch of a holder that has no replica yet (fresh, respawned, or
#: invalidated after a failed delta).
NO_REPLICA = -1

#: Update-blob tags: the message kinds a replica feed ships.
UPDATE_SNAPSHOT = "snapshot"
UPDATE_DELTA = "delta"


def snapshot_blob(epoch: int, rows: list[dict[str, object]]) -> bytes:
    """Pickle a full-broadcast update once, for fan-out to many holders."""
    return pickle.dumps(
        (UPDATE_SNAPSHOT, epoch, rows), protocol=pickle.HIGHEST_PROTOCOL
    )


def delta_blob(rd: ReplicaDelta) -> bytes:
    """Pickle a delta update (the wire and log form of *rd*)."""
    return pickle.dumps((UPDATE_DELTA, rd), protocol=pickle.HIGHEST_PROTOCOL)


@dataclass(eq=False)
class EpochUpdate:
    """One epoch's post-tick state, as every replica feed consumes it.

    The engine builds one per epoch when it captures the tick's change
    and hands the same object to each consumer: the spectator publisher
    and the epoch log at the end of the tick, the process workers at the
    start of the next.  *delta* advances a holder at ``epoch - 1`` to
    *epoch* (``None`` when no usable delta exists: the first epoch, a
    keyless diff, a restored state).  Each consumer keeps its own belief
    of what its holders hold and asks :meth:`chains_from` whether the
    delta reaches them.

    :meth:`delta_blob` and :meth:`snapshot_blob` pickle on first use
    and keep the result, so every holder of one epoch is handed the
    identical ``bytes`` object.  Neither the rows nor the delta may be
    mutated once the update exists.
    """

    epoch: int
    rows: list[dict[str, object]] = field(repr=False)
    delta: ReplicaDelta | None = None
    _delta: bytes | None = field(default=None, init=False, repr=False)
    _snapshot: bytes | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.delta is not None and self.delta.epoch != self.epoch:
            raise ValueError(
                f"delta to epoch {self.delta.epoch} cannot describe "
                f"epoch {self.epoch}"
            )

    def chains_from(self, held: int) -> bool:
        """True when a holder at epoch *held* can apply the delta."""
        return self.delta is not None and self.delta.base_epoch == held

    def delta_blob(self) -> bytes:
        """The pickled delta update (requires a delta)."""
        if self._delta is None:
            if self.delta is None:
                raise ValueError(f"epoch {self.epoch} has no delta")
            self._delta = delta_blob(self.delta)
        return self._delta

    def snapshot_blob(self) -> bytes:
        """The pickled full-snapshot update."""
        if self._snapshot is None:
            self._snapshot = snapshot_blob(self.epoch, self.rows)
        return self._snapshot


class ReplicaTable:
    """The receiving side of the replica protocol: a keyed copy of ``E``.

    Every replica holder -- a shard worker deciding its shards, a
    spectator process answering read-only queries -- keeps the same
    three pieces of state: the flat row list (reproducing the
    coordinator's row order exactly), the ``key -> row`` map the delta
    paths patch, and the epoch the replica currently holds.  ``by_key``
    is ``None`` while the replica holds duplicate keys: a keyless
    multiset has no row identity to patch, so it can only be
    snapshot-fed, never delta-fed.

    The update paths mirror the coordinator's fault model: a delta that
    cannot apply raises :class:`StaleReplicaError` and the caller must
    :meth:`invalidate` (a failed delta may have half-applied) and wait
    for a snapshot.
    """

    __slots__ = ("key_attr", "rows", "by_key", "order", "epoch")

    def __init__(self, key_attr: str) -> None:
        self.key_attr = key_attr
        self.rows: list[dict[str, object]] = []
        self.by_key: dict[object, dict[str, object]] | None = None
        self.order: list[object] = []
        self.epoch: int = NO_REPLICA

    @property
    def held(self) -> bool:
        """True when the replica holds some epoch (stale or not)."""
        return self.epoch != NO_REPLICA

    def invalidate(self) -> None:
        """Drop to the no-replica state (next update must be a snapshot)."""
        self.by_key = None
        self.epoch = NO_REPLICA

    def apply(self, update: tuple[object, ...]) -> None:
        """Apply one decoded update blob (:func:`snapshot_blob` or
        :func:`delta_blob`) -- the one decoder every holder uses."""
        tag = update[0]
        if tag == UPDATE_SNAPSHOT:
            _, epoch, rows = update
            self.apply_snapshot(
                cast(int, epoch), cast("list[dict[str, object]]", rows)
            )
        elif tag == UPDATE_DELTA:
            self.apply_delta(cast(ReplicaDelta, update[1]))
        else:
            raise ShardingError(f"unknown update tag {tag!r}")

    def apply_snapshot(self, epoch: int, rows: list[dict[str, object]]) -> None:
        """Replace the replica wholesale (takes ownership of *rows*)."""
        key_attr = self.key_attr
        self.rows = rows
        by_key: dict[object, dict[str, object]] = {}
        for row in rows:
            by_key[row[key_attr]] = row
        self.by_key = by_key if len(by_key) == len(rows) else None
        self.order = (
            [row[key_attr] for row in rows] if self.by_key is not None else []
        )
        self.epoch = epoch

    def apply_delta(self, rd: ReplicaDelta) -> None:
        """Advance the replica to ``rd.epoch``."""
        if self.by_key is None:
            raise StaleReplicaError("replica is not keyed; need a snapshot")
        self.order = apply_replica_delta(
            rd,
            self.by_key,
            self.order,
            key_attr=self.key_attr,
            replica_epoch=self.epoch,
        )
        by_key = self.by_key
        self.rows = [by_key[k] for k in self.order]
        self.epoch = rd.epoch
