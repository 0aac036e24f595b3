"""The one message transport under the worker and replica protocols.

:class:`SocketTransport` frames pickled messages over any
``SOCK_STREAM`` socket: a TCP session to a spectator or a feed
subscriber, or one end of the private ``socket.socketpair()`` a
same-host child process (a decision worker, a spectator) is started on
by :func:`start_child`.  Every frame is prefixed with a **protocol version
byte** (a peer speaking a different wire format is detected on the
first frame, not by an unpickling crash halfway through a delta) and a
4-byte length that is validated against a **maximum frame size**
before a single payload byte is read -- a bad or byzantine peer can
neither wedge the publisher behind a never-completing frame nor make it
allocate an absurd buffer.

Error taxonomy:

* ``EOFError`` -- the peer closed cleanly between frames;
* ``OSError`` (``BrokenPipeError``, ``ConnectionResetError``,
  ``TimeoutError``, ...) -- the medium failed;
* :class:`FrameError` -- the peer violated the framing contract
  (version mismatch, oversized or malformed frame), or the stream lost
  frame alignment (a timeout fired after part of a frame was consumed;
  the transport marks itself dead, because the next read would parse
  leftover payload bytes as a header).  ``FrameError`` subclasses
  ``OSError`` so generic fault paths that respawn/drop on transport
  failure handle protocol violations the same way.

Messages are pickles, so the transport is for loopback and trusted
networks only.  The framing guard protects liveness, not
confidentiality or unpickle safety.
"""

from __future__ import annotations

import multiprocessing
import pickle
import select
import socket
import struct
from typing import Any

#: Bump when the frame layout or blob vocabulary changes incompatibly.
#: 2: ReplicaDelta gained the positional wire encoding + the
#: ``insert_at`` order patch.  3: a remote worker session's ``INIT``
#: carries the coordinator's game, not a factory to build it (remote
#: workers, and ``INIT`` with them, are retired since).  4: a
#: snapshot blob is ``(tag, epoch, rows)`` and ``ReplicaDelta`` no
#: longer counts shard moves: the shard layout is fixed when the engine
#: is built and reaches workers only in their session payload.
PROTOCOL_VERSION = 4

#: Default ceiling on one frame's payload.  Sized for full snapshots of
#: very large environments (a 1M-unit battle snapshot pickles to well
#: under this) while still rejecting nonsense lengths immediately.
DEFAULT_MAX_FRAME = 256 * 1024 * 1024

#: How long a spectator replica child may take to answer its start-up
#: handshake (seconds).
STARTUP_TIMEOUT = 30.0

#: version byte + big-endian payload length.
_HEADER = struct.Struct(">BI")

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


class TransportError(OSError):
    """Base class for transport-layer failures."""


class FrameError(TransportError):
    """The peer violated the socket framing contract.

    Raised for a version-byte mismatch or a declared payload length
    beyond the frame-size guard -- before any payload is read, so a
    malicious length can never trigger the allocation it advertises.
    """


def unpickle_frame(payload: bytes) -> object:
    """Unpickle one received message.  The frame was fully consumed, so
    a bad payload is an error for *this* message only (a
    :class:`FrameError`); the stream itself is still on a boundary."""
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc


class SocketTransport:
    """One bidirectional channel of length-prefix-framed messages over a
    stream socket: whole messages in, whole messages out, peer loss as
    ``EOFError``/``OSError``.

    Frame layout: ``version:1 | length:4 (big-endian) | payload``.
    *max_frame* bounds accepted *and* sent payloads; *timeout* applies
    to every blocking send/recv (``None`` blocks forever), turning a
    stalled peer into a ``TimeoutError`` the caller can treat as any
    other transport failure.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        timeout: float | None = None,
    ):
        self._sock = sock
        self.max_frame = max_frame
        #: Set once the byte stream can no longer be trusted to sit on a
        #: frame boundary (timeout mid-frame, version mismatch, refused
        #: length): the remaining bytes of the broken frame would be
        #: parsed as a header, so every further send/recv must refuse.
        self._desynced = False
        sock.settimeout(timeout)
        if sock.family in (socket.AF_INET, getattr(socket, "AF_INET6", -1)):
            # frames are latency-sensitive (request/response queries);
            # never let Nagle hold a half-frame back
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # a silently partitioned peer sends no RST; keepalive makes
            # the OS probe an idle connection and reset it, so blocked
            # readers (a spectator's feed loop) eventually observe
            # the death instead of waiting forever
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)

    @classmethod
    def connect(
        cls,
        address: tuple[str, int],
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        timeout: float | None = None,
    ) -> "SocketTransport":
        sock = socket.create_connection(address, timeout=10.0)
        return cls(sock, max_frame=max_frame, timeout=timeout)

    def settimeout(self, timeout: float | None) -> None:
        """Adjust the blocking send/recv timeout for subsequent calls."""
        self._sock.settimeout(timeout)

    # -- sending ------------------------------------------------------------------

    def send(self, obj: object) -> int:
        """Pickle and send one message; returns bytes put on the wire."""
        return self.send_bytes(pickle.dumps(obj, protocol=_PICKLE_PROTOCOL))

    def send_bytes(self, blob: bytes) -> int:
        """Send an already-pickled message (pickled once, fanned out to
        many peers -- the broadcast pattern of the replica protocol)."""
        if self._desynced:
            raise FrameError(
                "transport is desynchronized (earlier timeout or framing "
                "violation mid-frame); reconnect instead of reusing it"
            )
        if len(blob) > self.max_frame:
            raise FrameError(
                f"refusing to send a {len(blob)}-byte frame "
                f"(max_frame={self.max_frame})"
            )
        try:
            self._sock.sendall(_HEADER.pack(PROTOCOL_VERSION, len(blob)))
            self._sock.sendall(blob)
        except OSError:
            # sendall may have written part of the frame before failing
            # (Python documents partial transmission on error); the
            # outgoing stream is mid-frame, so a retry would hand the
            # peer a header spliced into payload bytes.  Refuse reuse.
            self._desynced = True
            raise
        return _HEADER.size + len(blob)

    # -- receiving ----------------------------------------------------------------

    def _read_exact(self, n: int, *, mid_frame: bool) -> bytes:
        """Read exactly *n* bytes, or fail without lying about position.

        A timeout between frames (*mid_frame* false, nothing read yet)
        leaves the stream on a boundary and surfaces as the plain
        ``TimeoutError`` callers already treat as a transport fault; the
        transport stays usable.  A timeout after *any* byte of a frame
        was consumed leaves the stream pointing into the middle of that
        frame -- a later ``recv`` would parse payload bytes as a header
        -- so the transport is marked dead and the failure is promoted
        to :class:`FrameError`.
        """
        chunks: list[bytes] = []
        remaining = n
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except TimeoutError:
                if not mid_frame and remaining == n:
                    raise  # clean inter-frame stall; stream still synced
                self._desynced = True
                raise FrameError(
                    f"timed out mid-frame ({n - remaining} of {n} bytes "
                    "read); the stream is desynchronized and the "
                    "transport is now dead"
                ) from None
            if not chunk:
                if remaining == n and not chunks:
                    raise EOFError("peer closed the connection")
                raise EOFError("peer closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> object:
        """Receive and unpickle one whole message (blocking)."""
        return unpickle_frame(self.recv_bytes())

    def recv_bytes(self) -> bytes:
        """Receive one whole message still pickled (blocking) -- for a
        holder that keeps the wire frame rather than the decoded object."""
        if self._desynced:
            raise FrameError(
                "transport is desynchronized (earlier timeout or framing "
                "violation mid-frame); reconnect instead of reusing it"
            )
        header = self._read_exact(_HEADER.size, mid_frame=False)
        version, length = _HEADER.unpack(header)
        if version != PROTOCOL_VERSION:
            # the declared payload was never read: the stream no longer
            # sits on a frame boundary
            self._desynced = True
            raise FrameError(
                f"protocol version mismatch: peer sent {version}, "
                f"this side speaks {PROTOCOL_VERSION}"
            )
        if length > self.max_frame:
            self._desynced = True
            raise FrameError(
                f"peer declared a {length}-byte frame "
                f"(max_frame={self.max_frame}); refusing to read it"
            )
        return self._read_exact(length, mid_frame=True)

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a message (or at least its first byte) is ready."""
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
        except (OSError, ValueError):  # closed under us
            return False
        return bool(ready)

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Child processes on a private socketpair
# ---------------------------------------------------------------------------

#: A child's first message: ``(READY, value)`` or ``(ERROR, traceback)``.
READY = "ready"
ERROR = "error"


def start_child(
    target,
    args: tuple,
    *,
    mp_context=None,
    max_frame: int = DEFAULT_MAX_FRAME,
):
    """Start ``target(sock, *args)`` in a daemon process on a private
    ``socket.socketpair()``; returns ``(process, transport)``, our end.

    Fork where the platform has it (*args* are inherited, not pickled),
    else spawn.  The child opens with the handshake :func:`await_ready`
    reads, so a caller can start several children, then wait on each.
    """
    if mp_context is None:
        methods = multiprocessing.get_all_start_methods()
        mp_context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
    ours, theirs = socket.socketpair()
    process = mp_context.Process(
        target=target, args=(theirs, *args), daemon=True
    )
    try:
        process.start()
    finally:
        theirs.close()  # the child's end lives in the child alone
    return process, SocketTransport(ours, max_frame=max_frame)


def await_ready(
    transport: SocketTransport,
    what: str,
    *,
    process=None,
    timeout: float | None = None,
    error: type[Exception] = RuntimeError,
) -> Any:
    """Return the :data:`READY` value a child opens with; an :data:`ERROR` raises *error* naming *what*, with the
    peer's traceback.  On any failure the transport is closed and
    *process*, if given, is stopped."""
    try:
        if timeout is not None and not transport.poll(timeout):
            raise error(f"{what} did not start in time")
        tag, value = transport.recv()
        if tag == ERROR:
            raise error(f"{what} failed to initialise:\n{value}")
        if tag != READY:  # pragma: no cover - protocol bug
            raise error(f"{what} answered {tag!r} before it was ready")
    except BaseException:
        transport.close()
        if process is not None:
            process.terminate()  # a no-op once it has exited
            process.join(timeout=5)
        raise
    return value
