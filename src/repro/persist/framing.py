"""On-disk record framing for the durable epoch log.

The log file is a header followed by a flat sequence of CRC-framed
records.  The payloads are exactly the pickled update blobs the replica
protocol already ships over the wire (:func:`~repro.env.sharding
.snapshot_blob` / :func:`~repro.env.sharding.delta_blob`), so durability
reuses the wire encoders verbatim -- a log is a recorded replica feed.

Layout::

    file   := file_header record*
    file_header := magic:8 ("REPROLOG") version:1 reserved:7
    record := rec_magic:2 rtype:1 epoch:8 (signed BE) length:4 crc:4
              payload[length]

The CRC (``zlib.crc32``) covers ``rtype | epoch | length | payload`` --
everything after the record magic -- so a record is either wholly valid
or detectably torn.  A coordinator killed mid-write (power loss,
``kill -9``) leaves at most one partial record at the tail; readers
surface it as :class:`TornTailError` carrying the offset where the
valid prefix ends, and recovery truncates there instead of
half-applying it.

Record types:

* :data:`REC_META` -- pickled dict describing the producer (key
  attribute, seed, game construction kwargs); written once at attach so
  a log is self-contained for recovery;
* :data:`REC_SNAPSHOT` -- a full-state checkpoint: the standard
  snapshot blob ``(tag, epoch, rows)``;
* :data:`REC_DELTA` -- one tick's change set: the standard delta blob
  ``(tag, ReplicaDelta)``;
* :data:`REC_STATE` -- a small pickled dict of game-level counters
  (e.g. the battle summary) stamped at the same epoch as the preceding
  snapshot/delta record, so recovery restores them exactly.
"""

from __future__ import annotations

import struct
import zlib
from typing import BinaryIO, Iterator, NamedTuple

#: Identifies an epoch-log file; never changes.
FILE_MAGIC = b"REPROLOG"

#: Bump when the record layout or payload vocabulary changes
#: incompatibly.  1: the initial format described above.  2: snapshot
#: blobs no longer carry the shard layout, and the meta record no
#: longer records it.
FORMAT_VERSION = 2

#: 8-byte magic + 1-byte version + 7 reserved zero bytes.
FILE_HEADER = FILE_MAGIC + bytes([FORMAT_VERSION]) + b"\x00" * 7

#: Per-record magic: resynchronization anchor + cheap corruption check.
REC_MAGIC = b"\xc5\x1e"

REC_SNAPSHOT = 1
REC_DELTA = 2
REC_STATE = 3
REC_META = 4

_KNOWN_TYPES = frozenset((REC_SNAPSHOT, REC_DELTA, REC_STATE, REC_META))

#: rec_magic:2s | rtype:B | epoch:q | length:I | crc:I
_RECORD = struct.Struct(">2sBqII")

#: Size of the fixed per-record header (19 bytes).
RECORD_HEADER_SIZE = _RECORD.size

#: Ceiling on one record's payload -- same spirit as the transport's
#: frame guard: a corrupt length field must never trigger the
#: allocation it advertises.
DEFAULT_MAX_PAYLOAD = 1 << 31


class LogFormatError(ValueError):
    """The file is not an epoch log this reader understands."""


class TornTailError(ValueError):
    """The log's tail holds a partial or corrupt record.

    ``offset`` is where the valid prefix ends -- truncating the file
    there yields a log of wholly-valid records.  Everything before it
    has already been CRC-verified.
    """

    def __init__(self, offset: int, reason: str) -> None:
        super().__init__(f"torn log tail at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class Record(NamedTuple):
    """One decoded log record plus its file position."""

    offset: int  #: where the record's header starts
    end: int  #: offset just past the payload (next record's header)
    rtype: int
    epoch: int
    payload: bytes


def encode_record(rtype: int, epoch: int, payload: bytes) -> bytes:
    """Frame one payload as a complete record (header + CRC + payload)."""
    if rtype not in _KNOWN_TYPES:
        raise ValueError(f"unknown record type {rtype!r}")
    body = struct.pack(">BqI", rtype, epoch, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(body))
    return _RECORD.pack(REC_MAGIC, rtype, epoch, len(payload), crc) + payload


def check_file_header(header: bytes) -> None:
    """Validate the 16-byte file header; raises :class:`LogFormatError`."""
    if len(header) < len(FILE_HEADER):
        raise LogFormatError(
            f"file is {len(header)} bytes; not a complete epoch-log header"
        )
    if header[: len(FILE_MAGIC)] != FILE_MAGIC:
        raise LogFormatError("bad magic; not an epoch log")
    version = header[len(FILE_MAGIC)]
    if version != FORMAT_VERSION:
        raise LogFormatError(
            f"epoch-log format version {version} (this reader speaks "
            f"{FORMAT_VERSION})"
        )


def iter_records(
    fh: BinaryIO,
    *,
    start: int = len(FILE_HEADER),
    max_payload: int = DEFAULT_MAX_PAYLOAD,
) -> Iterator[Record]:
    """Yield verified records from *start*; stop at EOF or a torn tail.

    The file header must already have been checked.  Raises
    :class:`TornTailError` (with the valid-prefix offset) on a partial
    header, unknown type, absurd length, short payload, or CRC
    mismatch -- every way a crashed writer can leave the tail.
    """
    fh.seek(start)
    offset = start
    while True:
        header = fh.read(_RECORD.size)
        if not header:
            return
        if len(header) < _RECORD.size:
            raise TornTailError(offset, "partial record header")
        magic, rtype, epoch, length, crc = _RECORD.unpack(header)
        if magic != REC_MAGIC:
            raise TornTailError(offset, f"bad record magic {magic!r}")
        if rtype not in _KNOWN_TYPES:
            raise TornTailError(offset, f"unknown record type {rtype}")
        if length > max_payload:
            raise TornTailError(
                offset, f"record declares a {length}-byte payload"
            )
        payload = fh.read(length)
        if len(payload) < length:
            raise TornTailError(
                offset,
                f"partial payload ({len(payload)} of {length} bytes)",
            )
        want = zlib.crc32(header[2:-4])
        want = zlib.crc32(payload, want)
        if want != crc:
            raise TornTailError(offset, "CRC mismatch")
        end = offset + _RECORD.size + length
        yield Record(offset, end, rtype, epoch, payload)
        offset = end
