"""In-memory epoch history for spectator time-travel queries.

A spectator replica applies the feed's snapshot/delta updates and moves
forward; :class:`EpochHistory` is the retained rear-view mirror.  It
records every applied update -- snapshots as natural checkpoints,
deltas as their **pickled wire frame** -- and synthesizes a checkpoint
every *checkpoint_every* epochs by keeping a **shallow copy of the
replica's row list**.  That copy is exact forever:
:class:`~repro.env.sharding.ReplicaTable` never mutates a row in place
(delta application replaces changed rows with fresh dicts), so the
epoch-``k`` row objects *are* the epoch-``k`` state.  Checkpoints
therefore cost one list copy, not a deep copy of the environment.

:meth:`reconstruct` rebuilds the rows at any retained epoch by applying
the nearest checkpoint and the deltas after it through a scratch
``ReplicaTable`` -- the same machinery the live replica used, so the
reconstruction reproduces the coordinator's row order bit-exactly and a
:class:`~repro.serve.queries.QueryEngine` over it answers bit-identically
to the authoritative engine at that epoch.

Retention trims from the front, always leaving a checkpoint first, so
every epoch inside the advertised span stays reconstructible.

**Memory bound.**  A delta is kept as the bytes it arrived in, never as
the decoded :class:`~repro.env.sharding.ReplicaDelta`: a 1000-unit
battle epoch is a ~15 KiB frame but ~210 KiB of decoded dicts, so a
replica that kept the decoded form grew by ~0.2 MiB per tick -- and a
faster engine, completing more ticks in the same time, looked like a
memory regression.  :attr:`EpochHistory.history_bytes` is the retained
frame bytes plus the checkpoint row lists (their references; the row
dicts are the replica's own at that epoch); at most *retain* epochs plus
one checkpoint interval are held.  The price is decoding up to
*checkpoint_every* - 1 frames per reconstruction.
"""

from __future__ import annotations

import pickle
import sys
from bisect import bisect_left

from ..env.sharding import ReplicaDelta, ReplicaTable, delta_blob

_SNAPSHOT = 0
_DELTA = 1

#: ``(_SNAPSHOT, rows)`` or ``(_DELTA, pickled delta update frame)``.
_Entry = tuple[int, "list[dict[str, object]] | bytes"]


class EpochHistory:
    """Bounded history of one replica's epoch-versioned states."""

    __slots__ = ("key_attr", "checkpoint_every", "retain", "_epochs", "_entries")

    def __init__(
        self,
        key_attr: str,
        *,
        checkpoint_every: int = 32,
        retain: int = 256,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.key_attr = key_attr
        self.checkpoint_every = checkpoint_every
        self.retain = retain
        self._epochs: list[int] = []
        #: Parallel to ``_epochs``: ``(_SNAPSHOT, rows)`` or ``(_DELTA, rd)``.
        self._entries: list[_Entry] = []

    # -- recording ----------------------------------------------------------------

    def record_snapshot(
        self, epoch: int, rows: list[dict[str, object]]
    ) -> None:
        """The feed delivered a full snapshot: a free checkpoint."""
        self._record(epoch, (_SNAPSHOT, list(rows)))

    def record_delta(
        self,
        rd: ReplicaDelta,
        rows_after: list[dict[str, object]],
        frame: bytes | None = None,
    ) -> None:
        """The feed delivered a delta the replica just applied.

        *rows_after* is the replica's row list at ``rd.epoch``; when the
        checkpoint cadence comes due the history stores a shallow copy
        of it instead of the delta, bounding every reconstruction to at
        most *checkpoint_every* delta applications.  Otherwise it keeps
        *frame*, the delta update exactly as received
        (:func:`~repro.env.sharding.delta_blob` of *rd* when not given).
        """
        last_checkpoint = self._last_checkpoint_epoch()
        entry: _Entry
        if (
            last_checkpoint is None
            or rd.epoch - last_checkpoint >= self.checkpoint_every
        ):
            entry = (_SNAPSHOT, list(rows_after))
        else:
            entry = (_DELTA, delta_blob(rd) if frame is None else frame)
        self._record(rd.epoch, entry)

    def _record(self, epoch: int, entry: _Entry) -> None:
        if self._epochs and epoch <= self._epochs[-1]:
            # the feed moved backwards (coordinator restored an earlier
            # state): everything retained describes a superseded
            # timeline, so drop it rather than serve two histories
            self._epochs.clear()
            self._entries.clear()
            if entry[0] == _DELTA:
                return  # a delta without its base is unusable
        self._epochs.append(epoch)
        self._entries.append(entry)
        self._trim()

    def _last_checkpoint_epoch(self) -> int | None:
        for i in range(len(self._entries) - 1, -1, -1):
            if self._entries[i][0] == _SNAPSHOT:
                return self._epochs[i]
        return None

    def _trim(self) -> None:
        if not self._epochs:
            return
        target_first = self._epochs[-1] - self.retain + 1
        if self._epochs[0] >= target_first:
            return
        # keep the latest checkpoint at or before the retention target
        # (trimming only at checkpoint boundaries keeps the whole
        # advertised span reconstructible)
        keep_from: int | None = None
        for i, (kind, _) in enumerate(self._entries):
            if kind == _SNAPSHOT and self._epochs[i] <= target_first:
                keep_from = i
            elif self._epochs[i] > target_first:
                break
        if keep_from:
            del self._epochs[:keep_from]
            del self._entries[:keep_from]

    # -- inspection ---------------------------------------------------------------

    def span(self) -> tuple[int, int] | None:
        """Inclusive ``(first, last)`` reconstructible epoch, or ``None``."""
        for i, (kind, _) in enumerate(self._entries):
            if kind == _SNAPSHOT:
                return self._epochs[i], self._epochs[-1]
        return None

    def covers(self, epoch: int) -> bool:
        """True when *epoch* was recorded and is still reconstructible."""
        i = bisect_left(self._epochs, epoch)
        if i >= len(self._epochs) or self._epochs[i] != epoch:
            return False
        span = self.span()
        return span is not None and span[0] <= epoch

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def history_bytes(self) -> int:
        """Bytes retained: every delta frame plus every checkpoint's row
        list (see the module docstring for what that bounds)."""
        return sum(
            sys.getsizeof(data) if kind == _SNAPSHOT else len(data)
            for kind, data in self._entries
        )

    # -- reconstruction -----------------------------------------------------------

    def reconstruct(self, epoch: int) -> list[dict[str, object]]:
        """The replica's rows at *epoch*, in coordinator row order.

        Returns a fresh list; the row dicts are shared with the history
        (and are never mutated by it or the live replica).
        """
        i = bisect_left(self._epochs, epoch)
        if i >= len(self._epochs) or self._epochs[i] != epoch:
            raise KeyError(f"epoch {epoch} is not retained")
        base = i
        while base >= 0 and self._entries[base][0] != _SNAPSHOT:
            base -= 1
        if base < 0:
            raise KeyError(
                f"epoch {epoch} has no retained checkpoint before it"
            )
        table = ReplicaTable(self.key_attr)
        base_rows = self._entries[base][1]
        assert isinstance(base_rows, list)
        table.apply_snapshot(self._epochs[base], list(base_rows))
        for j in range(base + 1, i + 1):
            frame = self._entries[j][1]
            assert isinstance(frame, bytes)
            table.apply(pickle.loads(frame))
        return table.rows
