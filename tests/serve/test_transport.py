"""The transport layer: framing, version/size guards, child handshake.

Every frame carries a protocol version byte and a length that is
validated against the max-frame guard *before* any payload is read, so
a bad peer can neither wedge a reader behind a never-completing frame
nor make it allocate an absurd buffer.  Child processes started on a
private socketpair open with a READY / ERROR handshake.
"""

import pickle
import socket
import struct
import time

import pytest

from repro.serve.transport import (
    DEFAULT_MAX_FRAME,
    ERROR,
    PROTOCOL_VERSION,
    READY,
    FrameError,
    SocketTransport,
    TransportError,
    await_ready,
    start_child,
)

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "socketpair"),
    reason="platform lacks socketpair support",
)


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    left = SocketTransport(a, timeout=5.0)
    right = SocketTransport(b, timeout=5.0)
    yield left, right
    left.close()
    right.close()


class TestSocketTransport:
    def test_round_trip_both_directions(self, pair):
        left, right = pair
        left.send({"tick": 3, "rows": [1, 2, 3]})
        assert right.recv() == {"tick": 3, "rows": [1, 2, 3]}
        right.send(("reply", 3))
        assert left.recv() == ("reply", 3)

    def test_prepickled_blob_fanout(self, pair):
        """send_bytes ships an already-pickled blob (the broadcast path:
        pickle once, fan out to many subscribers)."""
        left, right = pair
        blob = pickle.dumps(("snapshot", 7, [{"key": 1}]))
        sent = left.send_bytes(blob)
        assert sent == len(blob) + 5  # header is version + 4-byte length
        assert right.recv() == ("snapshot", 7, [{"key": 1}])

    def test_multiple_frames_queue(self, pair):
        left, right = pair
        for i in range(5):
            left.send(i)
        assert [right.recv() for _ in range(5)] == list(range(5))

    def test_poll(self, pair):
        left, right = pair
        assert not right.poll(0.0)
        left.send("x")
        assert right.poll(1.0)
        assert right.recv() == "x"

    def test_version_mismatch_rejected(self, pair):
        left, right = pair
        raw = struct.pack(">BI", PROTOCOL_VERSION + 1, 3) + b"abc"
        left._sock.sendall(raw)
        with pytest.raises(FrameError, match="version mismatch"):
            right.recv()

    def test_oversized_frame_rejected_before_reading(self):
        """A declared length beyond the guard is refused on the header
        alone -- the advertised gigabyte is never read or allocated."""
        a, b = socket.socketpair()
        try:
            right = SocketTransport(b, max_frame=1024, timeout=5.0)
            a.sendall(struct.pack(">BI", PROTOCOL_VERSION, 1 << 30))
            with pytest.raises(FrameError, match="refusing to read"):
                right.recv()
        finally:
            a.close()
            b.close()

    def test_oversized_send_refused_locally(self):
        a, b = socket.socketpair()
        try:
            left = SocketTransport(a, max_frame=64, timeout=5.0)
            with pytest.raises(FrameError, match="refusing to send"):
                left.send_bytes(b"x" * 65)
        finally:
            a.close()
            b.close()

    def test_undecodable_payload_is_frame_error(self, pair):
        left, right = pair
        left._sock.sendall(struct.pack(">BI", PROTOCOL_VERSION, 4) + b"????")
        with pytest.raises(FrameError, match="undecodable"):
            right.recv()

    def test_clean_close_is_eof(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(EOFError):
            right.recv()

    def test_truncated_frame_is_eof(self, pair):
        """A peer dying mid-frame (the dropped-socket-mid-delta fault)
        surfaces as EOF, not a hang or a garbage message."""
        left, right = pair
        left._sock.sendall(struct.pack(">BI", PROTOCOL_VERSION, 100) + b"only")
        left.close()
        with pytest.raises(EOFError, match="mid-frame"):
            right.recv()

    def test_slow_writer_mid_frame_timeout_kills_transport(self):
        """A timeout that fires after part of a frame was consumed must
        not leave the stream desynchronized: the next recv would parse
        leftover payload bytes as a header.  The transport raises
        FrameError and refuses further use."""
        a, b = socket.socketpair()
        try:
            right = SocketTransport(b, timeout=0.2)
            # slow writer: full header claiming 100 bytes, then stalls
            # after 4 payload bytes
            a.sendall(struct.pack(">BI", PROTOCOL_VERSION, 100) + b"only")
            with pytest.raises(FrameError, match="mid-frame"):
                right.recv()
            # the writer wakes up and sends the rest -- but the reader
            # already lost its place, so the transport must refuse to
            # parse those bytes as a fresh frame instead of returning
            # garbage (or blocking on a payload that is really a header)
            a.sendall(b"x" * 96)
            with pytest.raises(FrameError, match="desynchronized"):
                right.recv()
            with pytest.raises(FrameError, match="desynchronized"):
                right.send(("tick", 1))
        finally:
            a.close()
            b.close()

    def test_idle_timeout_between_frames_keeps_transport_alive(self):
        """A timeout with no bytes read leaves the stream on a frame
        boundary: plain TimeoutError, and the transport still works."""
        a, b = socket.socketpair()
        try:
            left = SocketTransport(a, timeout=5.0)
            right = SocketTransport(b, timeout=0.2)
            with pytest.raises(TimeoutError):
                right.recv()
            left.send("late")
            assert right.recv() == "late"
        finally:
            a.close()
            b.close()

    def test_version_mismatch_desynchronizes(self, pair):
        """The mismatched frame's payload is never read, so the stream
        is mid-frame: the transport must go dead, not resync by luck."""
        left, right = pair
        left._sock.sendall(struct.pack(">BI", PROTOCOL_VERSION + 1, 3) + b"abc")
        with pytest.raises(FrameError, match="version mismatch"):
            right.recv()
        with pytest.raises(FrameError, match="desynchronized"):
            right.recv()

    def test_undecodable_payload_keeps_stream_synced(self, pair):
        """A garbage payload is fully consumed -- the *message* is bad,
        the stream position is fine, and later frames still arrive."""
        left, right = pair
        left._sock.sendall(struct.pack(">BI", PROTOCOL_VERSION, 4) + b"????")
        with pytest.raises(FrameError, match="undecodable"):
            right.recv()
        left.send("next")
        assert right.recv() == "next"

    def test_frame_error_is_os_error(self):
        """Generic transport fault paths (respawn/drop on OSError) must
        catch protocol violations without naming FrameError."""
        assert issubclass(FrameError, TransportError)
        assert issubclass(TransportError, OSError)

    def test_default_max_frame_accepts_large_snapshots(self, pair):
        import threading

        left, right = pair
        assert DEFAULT_MAX_FRAME >= 64 * 1024 * 1024
        blob = b"x" * (1 << 20)  # a 1 MiB frame passes untouched
        received = []
        reader = threading.Thread(target=lambda: received.append(right.recv()))
        reader.start()  # frame exceeds the kernel buffer; drain concurrently
        left.send_bytes(pickle.dumps(blob))
        reader.join(timeout=10)
        assert received == [blob]


def _child(sock, reply):
    """A child that opens its session with *reply* (or says nothing)."""
    with SocketTransport(sock) as transport:
        if reply is None:
            time.sleep(30)
        else:
            transport.send(reply)
            if reply[0] == READY:  # then echo one message back
                transport.send(transport.recv())


class TestChildHandshake:
    def test_ready_value_then_session(self):
        process, transport = start_child(_child, ((READY, ("h", 7)),))
        ready = await_ready(transport, "echo child", process=process)
        assert ready == ("h", 7)
        transport.send("ping")
        assert transport.recv() == "ping"
        transport.close()
        process.join(timeout=5)
        assert process.exitcode == 0

    def test_error_raises_with_the_child_traceback(self):
        process, transport = start_child(
            _child, ((ERROR, "Traceback ...\nValueError: bad game"),)
        )
        with pytest.raises(
            RuntimeError, match="(?s)echo child failed to initialise:.*bad game"
        ):
            await_ready(transport, "echo child", process=process)
        assert transport.fileno() == -1  # closed on failure
        assert not process.is_alive()

    def test_silent_child_times_out_and_is_stopped(self):
        process, transport = start_child(_child, (None,))
        with pytest.raises(TimeoutError, match="did not start in time"):
            await_ready(
                transport, "echo child", process=process, timeout=0.2,
                error=TimeoutError,
            )
        assert not process.is_alive()
