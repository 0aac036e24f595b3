"""EpochLogWriter/Reader and EpochHistory: replay is bit-exact.

Unit-level: hand-built rows and :class:`ReplicaDelta` patches drive the
writer's delta-vs-checkpoint decision, the reader's replay, and the
spectator history's checkpoint/trim/reconstruct logic -- asserting rows
*and row order* at every epoch, the contract everything downstream
(time travel, crash recovery) leans on.
"""

import logging
import sys

import pytest

from repro.env.sharding import (
    NO_REPLICA,
    EpochUpdate,
    ReplicaDelta,
    delta_blob,
)
from repro.persist import (
    REC_DELTA,
    REC_META,
    REC_SNAPSHOT,
    REC_STATE,
    EpochHistory,
    EpochLogError,
    EpochLogReader,
    EpochLogWriter,
    read_state_file,
    truncate_torn_tail,
    write_state_file,
)
from repro.persist.framing import FILE_HEADER, encode_record


def rows_at(epoch, n=6):
    """Deterministic tiny table: hp decays per epoch, rows keyed 0..n-1."""
    return [{"key": k, "hp": 100 - epoch * (k + 1)} for k in range(n)]


def delta_between(base_epoch, epoch, n=6):
    """The sparse patch taking rows_at(base_epoch) to rows_at(epoch)."""
    return ReplicaDelta(
        base_epoch=base_epoch,
        epoch=epoch,
        new_size=n,
        updated=[
            (k, {"hp": 100 - epoch * (k + 1)}) for k in range(n)
        ],
    )


def update_at(epoch, delta=None):
    """The post-tick update of epoch *epoch* (rows_at, optional delta)."""
    return EpochUpdate(epoch, rows_at(epoch), delta)


def write_epochs(path, epochs, *, checkpoint_every=64, state=False, **kw):
    """A log of chained epochs [1..epochs] with per-epoch state dicts."""
    with EpochLogWriter(
        path, checkpoint_every=checkpoint_every, **kw
    ) as writer:
        writer.append_meta({"key_attr": "key", "seed": 0})
        for epoch in range(1, epochs + 1):
            writer.append_epoch(
                update_at(
                    epoch,
                    None if epoch == 1 else delta_between(epoch - 1, epoch),
                ),
                state={"epoch": epoch} if state else None,
            )
        stats = writer.stats
    return stats


class TestWriter:
    def test_delta_when_chained_snapshot_when_due(self, tmp_path):
        path = tmp_path / "log"
        stats = write_epochs(path, 7, checkpoint_every=3)
        # epochs 1,4,7 checkpoint (cadence 3); 2,3,5,6 chain as deltas
        assert stats.snapshot_records == 3
        assert stats.delta_records == 4
        assert stats.last_epoch == 7
        assert stats.last_checkpoint_epoch == 7
        with EpochLogReader(path) as reader:
            kinds = [
                (rtype, epoch) for _, _, rtype, epoch in reader.index
            ]
        assert kinds == [
            (REC_META, 0),
            (REC_SNAPSHOT, 1),
            (REC_DELTA, 2),
            (REC_DELTA, 3),
            (REC_SNAPSHOT, 4),
            (REC_DELTA, 5),
            (REC_DELTA, 6),
            (REC_SNAPSHOT, 7),
        ]

    def test_unchained_delta_downgrades_to_snapshot(self, tmp_path):
        path = tmp_path / "log"
        with EpochLogWriter(path, checkpoint_every=100) as writer:
            writer.append_epoch(update_at(1))
            # a delta whose base is not the last logged epoch is unusable
            writer.append_epoch(update_at(3, delta_between(2, 3)))
            assert writer.stats.snapshot_records == 2
            assert writer.stats.delta_records == 0

    def test_invalidate_makes_the_next_record_a_checkpoint(self, tmp_path):
        with EpochLogWriter(tmp_path / "log", checkpoint_every=100) as writer:
            writer.append_epoch(update_at(1))
            writer.append_epoch(update_at(2, delta_between(1, 2)))
            writer.invalidate()  # an engine restored some other state
            # epoch 3's delta chains from epoch 2 by number only
            writer.append_epoch(update_at(3, delta_between(2, 3)))
            assert writer.stats.delta_records == 1
            assert writer.stats.snapshot_records == 2

    def test_state_record_follows_its_epoch_record(self, tmp_path):
        path = tmp_path / "log"
        write_epochs(path, 3, state=True)
        with EpochLogReader(path) as reader:
            kinds = [(rtype, epoch) for _, _, rtype, epoch in reader.index]
        # durable state implies durable epoch: STATE always after its
        # SNAPSHOT/DELTA at the same epoch
        assert kinds == [
            (REC_META, 0),
            (REC_SNAPSHOT, 1),
            (REC_STATE, 1),
            (REC_DELTA, 2),
            (REC_STATE, 2),
            (REC_DELTA, 3),
            (REC_STATE, 3),
        ]

    def test_flush_makes_enqueued_equal_written(self, tmp_path):
        path = tmp_path / "log"
        with EpochLogWriter(path) as writer:
            writer.append_epoch(update_at(1))
            writer.flush()
            assert writer.stats.bytes_written == writer.stats.bytes_enqueued

    def test_background_write_failure_is_remembered(self, tmp_path):
        path = tmp_path / "log"
        writer = EpochLogWriter(path)
        writer.append_epoch(update_at(1))
        writer.flush()
        writer._fh.close()  # yank the file out from under the thread
        writer.append_epoch(update_at(2))
        with pytest.raises(EpochLogError, match="write failed|flush failed"):
            writer.flush()
            writer.append_epoch(update_at(3))
        with pytest.raises(EpochLogError):
            writer.close()

    def test_append_after_close_refused(self, tmp_path):
        path = tmp_path / "log"
        writer = EpochLogWriter(path)
        writer.close()
        with pytest.raises(EpochLogError, match="closed"):
            writer.append_epoch(update_at(1))
        writer.close()  # idempotent

    def test_knob_validation(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            EpochLogWriter(tmp_path / "a", checkpoint_every=0)
        with pytest.raises(ValueError, match="fsync policy"):
            EpochLogWriter(tmp_path / "b", fsync="sometimes")

    @pytest.mark.parametrize("fsync", ["never", "checkpoint", "always"])
    @pytest.mark.parametrize("background", [True, False])
    def test_all_modes_produce_identical_logs(
        self, tmp_path, fsync, background
    ):
        path = tmp_path / "log"
        write_epochs(
            path, 5, checkpoint_every=2, fsync=fsync, background=background
        )
        with EpochLogReader(path) as reader:
            result = reader.replay()
        assert result.epoch == 5
        assert result.rows == rows_at(5)

    def test_resume_appends_to_existing_log(self, tmp_path):
        path = tmp_path / "log"
        write_epochs(path, 3, checkpoint_every=100)
        with EpochLogWriter(path, resume=True) as writer:
            # recovery's first act: a fresh checkpoint to chain from
            # (a resumed writer chains from nothing, so this is one)
            writer.append_epoch(update_at(3))
            assert writer.stats.snapshot_records == 1
            writer.append_epoch(update_at(4, delta_between(3, 4)))
        with EpochLogReader(path) as reader:
            assert reader.last_epoch == 4
            assert reader.replay().rows == rows_at(4)
            # the pre-resume records are still there
            assert reader.meta() == {"key_attr": "key", "seed": 0}


class TestReader:
    def test_replay_every_epoch_bit_exact(self, tmp_path):
        path = tmp_path / "log"
        write_epochs(path, 9, checkpoint_every=4)
        with EpochLogReader(path) as reader:
            assert reader.first_epoch == 1
            assert reader.last_epoch == 9
            for epoch in range(1, 10):
                result = reader.replay(upto=epoch)
                assert result.epoch == epoch
                assert result.rows == rows_at(epoch)  # values AND order
                # bounded work: one snapshot + at most cadence-1 deltas
                assert result.applied <= 4

    def test_replay_states_sweeps_whole_history(self, tmp_path):
        path = tmp_path / "log"
        write_epochs(path, 6, checkpoint_every=3)
        with EpochLogReader(path) as reader:
            seen = [
                (epoch, list(rows))
                for epoch, rows in reader.replay_states()
            ]
        assert [e for e, _ in seen] == list(range(1, 7))
        for epoch, rows in seen:
            assert rows == rows_at(epoch)

    def test_last_state_respects_upto(self, tmp_path):
        path = tmp_path / "log"
        write_epochs(path, 5, state=True)
        with EpochLogReader(path) as reader:
            assert reader.last_state() == (5, {"epoch": 5})
            assert reader.last_state(upto=3) == (3, {"epoch": 3})
            assert reader.last_state(upto=0) is None

    def test_replay_before_first_checkpoint_refused(self, tmp_path):
        path = tmp_path / "log"
        write_epochs(path, 3)
        with EpochLogReader(path) as reader:
            with pytest.raises(EpochLogError, match="no checkpoint"):
                reader.replay(upto=0)

    def test_missing_key_attr_needs_explicit_one(self, tmp_path):
        path = tmp_path / "log"
        with EpochLogWriter(path) as writer:  # no meta record
            writer.append_epoch(update_at(1))
        with EpochLogReader(path) as reader:
            with pytest.raises(EpochLogError, match="no key_attr"):
                reader.replay()
            assert reader.replay(key_attr="key").rows == rows_at(1)

    def test_empty_log_properties(self, tmp_path):
        path = tmp_path / "log"
        with EpochLogWriter(path):
            pass
        with EpochLogReader(path) as reader:
            assert reader.index == []
            assert reader.meta() is None
            assert reader.first_epoch == NO_REPLICA
            assert reader.last_epoch == NO_REPLICA
            assert reader.last_state() is None


class TestTruncateTornTail:
    def test_whole_log_untouched(self, tmp_path):
        path = tmp_path / "log"
        write_epochs(path, 3)
        size = path.stat().st_size
        assert truncate_torn_tail(path) == 0
        assert path.stat().st_size == size

    def test_partial_tail_record_dropped_loudly(self, tmp_path, caplog):
        path = tmp_path / "log"
        write_epochs(path, 3, checkpoint_every=100)
        whole = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\xc5\x1e\x01partial...")  # a record cut mid-write
        with caplog.at_level(logging.WARNING, logger="repro.persist"):
            dropped = truncate_torn_tail(path)
        assert dropped == 13
        assert path.stat().st_size == whole
        assert any("torn tail" in r.message for r in caplog.records)
        # the surviving prefix replays cleanly
        with EpochLogReader(path) as reader:
            assert reader.replay().rows == rows_at(3)

    def test_corrupt_middle_byte_truncates_to_valid_prefix(self, tmp_path):
        path = tmp_path / "log"
        write_epochs(path, 4, checkpoint_every=2)
        with EpochLogReader(path) as reader:
            # corrupt the epoch-3 record: everything after it must go
            offset = next(
                off
                for off, _, rtype, epoch in reader.index
                if epoch == 3 and rtype in (REC_SNAPSHOT, REC_DELTA)
            )
        with open(path, "r+b") as fh:
            fh.seek(offset + 25)
            fh.write(b"\xff")
        assert truncate_torn_tail(path) > 0
        with EpochLogReader(path) as reader:
            assert reader.last_epoch == 2
            assert reader.replay().rows == rows_at(2)

    def test_sub_header_file_truncated_to_empty(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(b"REPRO")  # died before the header landed
        assert truncate_torn_tail(path) == 5
        assert path.stat().st_size == 0


class TestStateFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "save"
        state = {"kwargs": {"n_units": 8}, "rows": rows_at(2)}
        write_state_file(path, 2, state)
        assert read_state_file(path) == (2, state)

    def test_truncated_save_never_half_loads(self, tmp_path):
        path = tmp_path / "save"
        write_state_file(path, 2, {"rows": rows_at(2)})
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(Exception, match="torn log tail"):
            read_state_file(path)

    def test_non_save_record_rejected(self, tmp_path):
        path = tmp_path / "log"
        write_epochs(path, 1)
        with pytest.raises(EpochLogError, match="not a save file"):
            read_state_file(path)


class TestEpochHistory:
    def feed(self, history, first, last, *, snapshot_first=True):
        """Drive the history like a replica feed over [first..last]."""
        for epoch in range(first, last + 1):
            if epoch == first and snapshot_first:
                history.record_snapshot(epoch, rows_at(epoch))
            else:
                history.record_delta(
                    delta_between(epoch - 1, epoch), rows_at(epoch)
                )

    def test_reconstruct_every_epoch(self):
        history = EpochHistory("key", checkpoint_every=3, retain=100)
        self.feed(history, 1, 10)
        assert history.span() == (1, 10)
        for epoch in range(1, 11):
            assert history.covers(epoch)
            assert history.reconstruct(epoch) == rows_at(epoch)

    def test_trim_keeps_span_reconstructible(self):
        history = EpochHistory("key", checkpoint_every=2, retain=4)
        self.feed(history, 1, 12)
        first, last = history.span()
        assert last == 12
        # retention is approximate up to the checkpoint boundary, but
        # never narrower than asked and the whole span reconstructs
        assert last - first + 1 >= 4
        assert first > 1  # old epochs actually evicted
        for epoch in range(first, last + 1):
            assert history.reconstruct(epoch) == rows_at(epoch)
        assert not history.covers(first - 1)
        with pytest.raises(KeyError, match="not retained"):
            history.reconstruct(first - 1)

    def test_backward_jump_clears_superseded_timeline(self):
        history = EpochHistory("key", checkpoint_every=2, retain=100)
        self.feed(history, 1, 6)
        # the coordinator restored epoch 3 and re-published: the feed
        # jumps backwards with a snapshot
        history.record_snapshot(3, rows_at(3))
        assert history.span() == (3, 3)
        assert not history.covers(5)
        self.feed(history, 4, 5, snapshot_first=False)
        assert history.span() == (3, 5)
        assert history.reconstruct(4) == rows_at(4)

    def test_deltas_are_kept_as_wire_frames(self):
        """A 1000-unit, 100-epoch history holds each delta as the bytes
        it arrived in, never the decoded delta: ``history_bytes`` is at
        most the frames' lengths plus the retained checkpoint lists."""
        n = 1000
        history = EpochHistory("key", checkpoint_every=32, retain=256)
        history.record_snapshot(1, rows_at(1, n))
        frames = {}
        for epoch in range(2, 101):
            rd = delta_between(epoch - 1, epoch, n)
            frames[epoch] = delta_blob(rd)
            history.record_delta(rd, rows_at(epoch, n), frames[epoch])
        deltas = [data for kind, data in history._entries if kind == 1]
        checkpoints = [data for kind, data in history._entries if kind == 0]
        assert deltas and all(type(data) is bytes for data in deltas)
        assert len(deltas) + len(checkpoints) == 100
        assert history.history_bytes <= sum(map(len, frames.values())) + sum(
            sys.getsizeof(rows) for rows in checkpoints
        )
        for epoch in (1, 2, 33, 34, 60, 100):
            assert history.reconstruct(epoch) == rows_at(epoch, n)

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            EpochHistory("key", checkpoint_every=0)
        with pytest.raises(ValueError, match="retain"):
            EpochHistory("key", retain=0)


@pytest.mark.parametrize(
    "rtype, blob, framed",
    [
        (REC_SNAPSHOT, delta_blob(delta_between(1, 2)), "snapshot"),
        (REC_DELTA, update_at(1).snapshot_blob(), "delta"),
    ],
    ids=["delta-framed-as-snapshot", "snapshot-framed-as-delta"],
)
def test_replay_rejects_a_record_framed_as_the_other_kind(
    tmp_path, rtype, blob, framed
):
    """Both replay paths check a record's framing type against the tag
    it decodes to, so a record cannot be replayed as the other kind."""
    path = tmp_path / "mixed.log"
    path.write_bytes(
        FILE_HEADER
        + encode_record(REC_SNAPSHOT, 1, update_at(1).snapshot_blob())
        + encode_record(rtype, 2, blob)
    )
    with EpochLogReader(str(path)) as reader:
        with pytest.raises(EpochLogError, match=f"framed as a {framed}"):
            reader.replay(key_attr="key")
        with pytest.raises(EpochLogError, match=f"framed as a {framed}"):
            list(reader.replay_states(key_attr="key"))
