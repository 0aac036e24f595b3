"""The durable epoch log: append the replica feed to disk, replay it back.

:class:`EpochLogWriter` is one of the engine's three replica feeds,
beside the spectator publisher and the worker pool.  Once per tick it
is handed the epoch's :class:`~repro.env.sharding.EpochUpdate` -- the
same object the publisher streams, carrying the post-tick rows and the
captured delta -- and appends **one epoch
record**: the delta when it chains from the last logged epoch, a
full-snapshot *checkpoint* otherwise (first record, unusable diff, a
restored engine state, or the checkpoint cadence coming due),
optionally followed by a small game-state record.  The record payload
is the update's own pickle, shared with the other feeds.
Encoding and pickling happen in the caller's thread (cheap for deltas,
and it makes the per-tick byte count exact); the disk write and any
``fsync`` run on a background thread, so a slow disk never blocks the
tick loop.  A failed background write is remembered and re-raised on
the next append/flush/close -- the simulation itself is never corrupted
by its log.

:class:`EpochLogReader` scans a log (CRC-verifying every record),
exposes the recorded metadata and game states, and :meth:`replays
<EpochLogReader.replay>` the state at any retained epoch by applying the
nearest checkpoint snapshot and the deltas after it through the same
:class:`~repro.env.sharding.ReplicaTable` machinery every replica holder
uses -- so a replayed environment reproduces the coordinator's rows
*and row order* exactly.

:func:`truncate_torn_tail` is the crash-recovery entry point: it
detects a partial/corrupt tail record (the signature of a writer killed
mid-write), logs it loudly, and truncates the file back to the valid
prefix so recovery never half-applies a record.
"""

from __future__ import annotations

import logging
import os
import pickle
import queue
import threading
import time
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Iterator, cast

from ..env.sharding import (
    NO_REPLICA,
    UPDATE_DELTA,
    UPDATE_SNAPSHOT,
    EpochUpdate,
    ReplicaTable,
    StaleReplicaError,
)
from ..obs import (
    NULL_REGISTRY,
    TID_LOG,
    TID_MAIN,
    MetricsRegistry,
    RegistryStats,
    TraceRecorder,
)
from .framing import (
    FILE_HEADER,
    REC_DELTA,
    REC_META,
    REC_SNAPSHOT,
    REC_STATE,
    RECORD_HEADER_SIZE,
    Record,
    TornTailError,
    check_file_header,
    encode_record,
    iter_records,
)

logger = logging.getLogger("repro.persist")

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: ``fsync`` policies: never (close only), at checkpoints, every record.
FSYNC_POLICIES = ("never", "checkpoint", "always")


class EpochLogError(RuntimeError):
    """The epoch log failed (I/O error, unusable or corrupt contents)."""


class EpochLogStats(RegistryStats):
    """Counters of one writer's lifetime.

    Attribute reads and writes behave exactly like the dataclass this
    replaces; with a metrics registry bound at construction each field
    is a registry cell (the ``epochlog_*`` series).  Caller-thread
    fields except ``bytes_written``, which the background thread updates
    and equals ``bytes_enqueued`` after a ``flush()``.
    """

    _PREFIX = "epochlog"
    _COUNTER_FIELDS = (
        "records",
        "snapshot_records",
        "delta_records",
        "state_records",
        "bytes_enqueued",
        "bytes_written",
    )
    _GAUGE_FIELDS = {
        "last_epoch": NO_REPLICA,
        "last_checkpoint_epoch": NO_REPLICA,
    }


class EpochLogWriter:
    """Append-only writer of the on-disk epoch log.

    Single-owner: one thread (the engine's tick loop) appends.  With
    *background* (the default) the file writes happen on a daemon
    thread fed through a queue; ``flush()`` waits for the queue to
    drain and fsyncs, ``close()`` flushes, fsyncs, and joins the
    thread.  *fsync* selects durability: ``"never"`` (close only),
    ``"checkpoint"`` (default -- every snapshot checkpoint), or
    ``"always"`` (every record; what a crash drill wants).

    *resume* appends to an existing log (recovery re-attaching after a
    crash) instead of starting a fresh one; the caller must have
    truncated any torn tail first, and should append a fresh checkpoint
    immediately so the resumed log chains from a durable base.
    """

    def __init__(
        self,
        path: str,
        *,
        checkpoint_every: int = 64,
        fsync: str = "checkpoint",
        background: bool = True,
        resume: bool = False,
        metrics: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; pick from {FSYNC_POLICIES}"
            )
        self.path = os.fspath(path)
        self.checkpoint_every = checkpoint_every
        self.fsync = fsync
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._trace = trace
        if trace is not None:
            trace.thread_name(TID_LOG, "epoch log writer")
        self._m_queue_depth = registry.gauge("epochlog_queue_depth")
        self._m_fsync_seconds = registry.histogram("epochlog_fsync_seconds")
        self._m_write_seconds = registry.histogram("epochlog_write_seconds")
        self.stats = EpochLogStats(metrics)
        self._error: BaseException | None = None
        self._closed = False
        fresh = True
        if resume and os.path.exists(self.path):
            size = os.path.getsize(self.path)
            if size >= len(FILE_HEADER):
                with open(self.path, "rb") as fh:
                    check_file_header(fh.read(len(FILE_HEADER)))
                fresh = False
        self._fh = open(self.path, "ab" if not fresh else "wb")
        if fresh:
            self._fh.write(FILE_HEADER)
            self.stats.bytes_enqueued += len(FILE_HEADER)
            self.stats.bytes_written += len(FILE_HEADER)
        self._queue: queue.Queue[tuple[bytes, bool, int] | None] | None = None
        self._thread: threading.Thread | None = None
        if background:
            self._queue = queue.Queue()
            self._thread = threading.Thread(
                target=self._drain, name="repro-epoch-log", daemon=True
            )
            self._thread.start()

    # -- appends (caller thread) --------------------------------------------------

    def append_meta(self, meta: dict[str, object]) -> int:
        """Record the producer's self-description (once, at attach)."""
        return self._append(
            REC_META, 0, pickle.dumps(meta, protocol=_PICKLE_PROTOCOL)
        )

    def append_epoch(
        self,
        update: EpochUpdate,
        *,
        state: dict[str, object] | None = None,
    ) -> int:
        """Log one post-tick state; returns the bytes enqueued.

        Writes the update's delta when it chains from the last logged
        epoch and no checkpoint is due; otherwise a full snapshot
        checkpoint.  *state*, when given, is appended as a
        :data:`~repro.persist.framing.REC_STATE` record at the same
        epoch -- after the epoch record, so a durable state implies a
        durable (replayable) epoch.
        """
        st = self.stats
        epoch = update.epoch
        checkpoint_due = (
            st.last_checkpoint_epoch == NO_REPLICA
            or epoch - st.last_checkpoint_epoch >= self.checkpoint_every
        )
        if update.chains_from(st.last_epoch) and not checkpoint_due:
            n = self._append(REC_DELTA, epoch, update.delta_blob())
            st.delta_records += 1
        else:
            n = self._append(REC_SNAPSHOT, epoch, update.snapshot_blob())
            st.snapshot_records += 1
            st.last_checkpoint_epoch = epoch
            checkpoint_due = True
        st.last_epoch = epoch
        if state is not None:
            n += self.append_state(epoch, state, sync=checkpoint_due)
        return n

    def append_state(
        self, epoch: int, state: dict[str, object], *, sync: bool = False
    ) -> int:
        """Append a game-state record stamped at *epoch*."""
        n = self._append(
            REC_STATE,
            epoch,
            pickle.dumps(state, protocol=_PICKLE_PROTOCOL),
            sync=sync,
        )
        self.stats.state_records += 1
        return n

    def invalidate(self) -> None:
        """Drop the delta chain: the next epoch record is a checkpoint
        (the engine restored a state the logged epochs do not lead to)."""
        self.stats.last_epoch = NO_REPLICA

    def _append(
        self, rtype: int, epoch: int, payload: bytes, *, sync: bool = False
    ) -> int:
        self._raise_if_failed()
        if self._closed:
            raise EpochLogError(f"epoch log {self.path!r} is closed")
        trace = self._trace
        t0 = time.perf_counter() if trace is not None else 0.0
        buf = encode_record(rtype, epoch, payload)
        if trace is not None:
            trace.complete_perf(
                "log_encode", "epochlog", t0, time.perf_counter(),
                tid=TID_MAIN, epoch=epoch, bytes=len(buf),
            )
        want_sync = sync or self.fsync == "always" or (
            self.fsync == "checkpoint" and rtype == REC_SNAPSHOT
        )
        if self._queue is not None:
            self._queue.put((buf, want_sync, epoch))
            self._m_queue_depth.set(self._queue.qsize())
        else:
            self._write(buf, want_sync, epoch)
            self._raise_if_failed()
        self.stats.records += 1
        self.stats.bytes_enqueued += len(buf)
        return len(buf)

    # -- the background writer ----------------------------------------------------

    def _write(self, buf: bytes, sync: bool, epoch: int | None = None) -> None:
        trace = self._trace
        try:
            t0 = time.perf_counter()
            self._fh.write(buf)
            t1 = time.perf_counter()
            self._m_write_seconds.observe(t1 - t0)
            if trace is not None:
                trace.complete_perf(
                    "log_write", "epochlog", t0, t1,
                    tid=TID_LOG, epoch=epoch, bytes=len(buf),
                )
            if sync:
                t0 = time.perf_counter()
                self._fh.flush()
                os.fsync(self._fh.fileno())
                t1 = time.perf_counter()
                self._m_fsync_seconds.observe(t1 - t0)
                if trace is not None:
                    trace.complete_perf(
                        "log_fsync", "epochlog", t0, t1,
                        tid=TID_LOG, epoch=epoch,
                    )
            # reprolint: disable=cross-thread-mutation -- _write runs on
            # exactly one thread per writer mode (drain thread when
            # background, caller thread when synchronous), never both
            self.stats.bytes_written += len(buf)
        except BaseException as exc:  # noqa: BLE001 - remembered, re-raised
            # reprolint: disable=cross-thread-mutation -- single-writer per
            # mode (see above); readers tolerate a GIL-atomic torn read
            self._error = exc

    def _drain(self) -> None:
        q = self._queue
        assert q is not None  # only started in background mode
        while True:
            item = q.get()
            self._m_queue_depth.set(q.qsize())
            try:
                if item is None:
                    return
                if self._error is None:
                    self._write(*item)
            finally:
                q.task_done()

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise EpochLogError(
                f"epoch log {self.path!r} write failed: {self._error}"
            ) from self._error

    # -- lifecycle ----------------------------------------------------------------

    def flush(self) -> None:
        """Block until every enqueued record is on disk (fsynced)."""
        self._raise_if_failed()
        if self._queue is not None:
            self._queue.join()
        self._raise_if_failed()
        try:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            raise EpochLogError(
                f"epoch log {self.path!r} flush failed: {exc}"
            ) from exc

    def close(self) -> None:
        """Flush, fsync, stop the background thread, close the file."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            assert self._queue is not None
            self._queue.put(None)
            self._thread.join()
            self._thread = None
        error = self._error
        try:
            if error is None:
                self._fh.flush()
                os.fsync(self._fh.fileno())
        finally:
            self._fh.close()
        if error is not None:
            raise EpochLogError(
                f"epoch log {self.path!r} write failed: {error}"
            ) from error

    def __enter__(self) -> "EpochLogWriter":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reading and replay
# ---------------------------------------------------------------------------


@dataclass
class ReplayResult:
    """The replayed state at :attr:`epoch` (coordinator row order)."""

    epoch: int
    rows: list[dict[str, object]]
    #: Records applied to reach the state (1 snapshot + N deltas).
    applied: int = 0


def _decode_update(record: Record) -> Any:
    try:
        return pickle.loads(record.payload)
    except Exception as exc:
        raise EpochLogError(
            f"record at byte {record.offset} has an undecodable payload: "
            f"{exc}"
        ) from exc


class EpochLogReader:
    """Random-access reader over one (already whole) epoch log.

    Scans the record index once at construction, CRC-verifying every
    record.  A torn tail raises :class:`~repro.persist.framing
    .TornTailError` -- run :func:`truncate_torn_tail` first when
    recovering from a crash.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._fh = open(self.path, "rb")
        check_file_header(self._fh.read(len(FILE_HEADER)))
        #: (offset, end, rtype, epoch) per record, in file order.
        self.index: list[tuple[int, int, int, int]] = []
        for rec in iter_records(self._fh):
            self.index.append((rec.offset, rec.end, rec.rtype, rec.epoch))

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "EpochLogReader":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def _load(self, i: int) -> Record:
        offset, end, rtype, epoch = self.index[i]
        self._fh.seek(offset + RECORD_HEADER_SIZE)
        payload = self._fh.read(end - offset - RECORD_HEADER_SIZE)
        return Record(offset, end, rtype, epoch, payload)

    # -- inspection ---------------------------------------------------------------

    def meta(self) -> dict[str, object] | None:
        """The first recorded metadata dict, or ``None``."""
        for i, (_, _, rtype, _) in enumerate(self.index):
            if rtype == REC_META:
                return _decode_update(self._load(i))
        return None

    @property
    def first_epoch(self) -> int:
        """Earliest replayable epoch (first snapshot), or ``NO_REPLICA``."""
        for _, _, rtype, epoch in self.index:
            if rtype == REC_SNAPSHOT:
                return epoch
        return NO_REPLICA

    @property
    def last_epoch(self) -> int:
        """Latest logged epoch, or ``NO_REPLICA`` for an empty log."""
        for _, _, rtype, epoch in reversed(self.index):
            if rtype in (REC_SNAPSHOT, REC_DELTA):
                return epoch
        return NO_REPLICA

    def last_state(
        self, upto: int | None = None
    ) -> tuple[int, dict[str, object]] | None:
        """The latest game-state record at epoch <= *upto* (or overall)."""
        for i in range(len(self.index) - 1, -1, -1):
            _, _, rtype, epoch = self.index[i]
            if rtype == REC_STATE and (upto is None or epoch <= upto):
                return epoch, _decode_update(self._load(i))
        return None

    # -- replay -------------------------------------------------------------------

    def replay(
        self, upto: int | None = None, *, key_attr: str | None = None
    ) -> ReplayResult:
        """Reconstruct the state at the latest epoch <= *upto*.

        Seeks the last checkpoint snapshot at or before *upto* and
        applies the deltas after it, exactly as a live replica would --
        the replayed rows reproduce the coordinator's row order
        bit-exactly.  *key_attr* defaults to the recorded metadata's.
        """
        table = self._replica(key_attr)
        base: int | None = None
        for i in range(len(self.index) - 1, -1, -1):
            _, _, rtype, epoch = self.index[i]
            if rtype == REC_SNAPSHOT and (upto is None or epoch <= upto):
                base = i
                break
        if base is None:
            raise EpochLogError(
                f"epoch log {self.path!r} holds no checkpoint at or "
                f"before epoch {upto!r}"
            )
        self._apply(table, base)
        applied = 1
        for i in range(base + 1, len(self.index)):
            _, _end, rtype, epoch = self.index[i]
            if rtype != REC_DELTA:
                continue
            if upto is not None and epoch > upto:
                break
            self._apply(table, i)
            applied += 1
        return ReplayResult(
            epoch=table.epoch,
            rows=table.rows,
            applied=applied,
        )

    def replay_states(
        self, *, key_attr: str | None = None
    ) -> Iterator[tuple[int, list[dict[str, object]]]]:
        """Yield ``(epoch, rows)`` for every logged epoch, in one pass.

        The cheap way to sweep the whole history (benchmarks, audits):
        each yielded ``rows`` list is the live replica's -- copy it if
        you keep it past the next step.
        """
        table = self._replica(key_attr)
        for i, (_, _, rtype, _) in enumerate(self.index):
            if rtype in (REC_SNAPSHOT, REC_DELTA):
                self._apply(table, i)
                yield table.epoch, table.rows

    def _replica(self, key_attr: str | None) -> ReplicaTable:
        """An empty replica keyed by *key_attr*, or by the recorded
        metadata's ``key_attr`` when that is ``None``."""
        if key_attr is None:
            recorded = (self.meta() or {}).get("key_attr")
            if recorded is None:
                raise EpochLogError(
                    f"epoch log {self.path!r} records no key_attr; pass one"
                )
            key_attr = cast(str, recorded)
        return ReplicaTable(key_attr)

    def _apply(self, table: ReplicaTable, i: int) -> None:
        """Apply snapshot or delta record *i* to *table*, checking that
        its framing type matches the update tag it decodes to."""
        offset, _, rtype, _ = self.index[i]
        update = _decode_update(self._load(i))
        framed = UPDATE_SNAPSHOT if rtype == REC_SNAPSHOT else UPDATE_DELTA
        if update[0] != framed:
            raise EpochLogError(
                f"record at byte {offset} is framed as a {framed} but "
                f"decodes as {update[0]!r}"
            )
        try:
            table.apply(update)
        except StaleReplicaError as exc:
            raise EpochLogError(
                f"delta at byte {offset} does not chain: {exc}"
            ) from exc


def truncate_torn_tail(path: str) -> int:
    """Drop a torn tail record; returns the bytes truncated (0 if whole).

    The crash-recovery preamble: verifies the log record by record, and
    when the tail is partial or corrupt (a writer killed mid-write),
    **logs it loudly** and truncates the file back to the last wholly
    valid record.  A file too short to hold even the header is
    truncated to empty.
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    if size < len(FILE_HEADER):
        logger.warning(
            "epoch log %s: %d-byte file cannot hold the %d-byte header; "
            "truncating to empty",
            path,
            size,
            len(FILE_HEADER),
        )
        with open(path, "r+b") as fh:
            fh.truncate(0)
        return size
    with open(path, "rb") as fh:
        check_file_header(fh.read(len(FILE_HEADER)))
        valid_end = len(FILE_HEADER)
        try:
            for rec in iter_records(fh):
                valid_end = rec.end
        except TornTailError as exc:
            dropped = size - exc.offset
            logger.warning(
                "epoch log %s: torn tail (%s); truncating %d bytes back "
                "to offset %d -- the last durable record wins, the "
                "partial one is discarded",
                path,
                exc.reason,
                dropped,
                exc.offset,
            )
            with open(path, "r+b") as out:
                out.truncate(exc.offset)
            return dropped
    return 0


# ---------------------------------------------------------------------------
# Single-state save files (BattleSimulation.save / load)
# ---------------------------------------------------------------------------


def write_state_file(path: str, epoch: int, state: dict[str, object]) -> int:
    """Write a one-record save file (same framing as the log)."""
    buf = FILE_HEADER + encode_record(
        REC_STATE, epoch, pickle.dumps(state, protocol=_PICKLE_PROTOCOL)
    )
    with open(path, "wb") as fh:
        fh.write(buf)
        fh.flush()
        os.fsync(fh.fileno())
    return len(buf)


def read_state_file(path: str) -> tuple[int, dict[str, object]]:
    """Read a save file back; returns ``(epoch, state)``.

    CRC-verified like any log record; a truncated or corrupt save
    surfaces as :class:`~repro.persist.framing.TornTailError` /
    :class:`EpochLogError`, never as a half-loaded state.
    """
    with open(path, "rb") as fh:
        check_file_header(fh.read(len(FILE_HEADER)))
        for rec in iter_records(fh):
            if rec.rtype != REC_STATE:
                raise EpochLogError(
                    f"{path!r} is not a save file (record type {rec.rtype})"
                )
            return rec.epoch, _decode_update(rec)
    raise EpochLogError(f"{path!r} holds no state record")
