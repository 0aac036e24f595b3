"""Coordinator-side subscription feed for spectator read replicas.

:class:`ReplicaPublisher` is the serving half of the engine's publish
stage: it listens on a loopback/TCP socket, accepts any number of
subscribers, and streams the *same* epoch-versioned update blobs the
shard worker pool ships to its workers.  The engine hands it each epoch's
:class:`~repro.env.sharding.EpochUpdate`, the object the epoch log and
the next tick's worker broadcast are handed too; the update pickles
its delta and its snapshot at most once each, so every subscriber, the
log and the workers share the same bytes.

The protocol reuses PR 3's fault model wholesale, adapted from
addressed request/reply (workers must ack every tick -- the coordinator
needs their results) to fire-and-forget publication (spectators are
read-only, so the tick loop must never block on them):

* a **late joiner** is accepted with no replica epoch and receives the
  full snapshot at the next publish;
* a **delta subscriber** receives the per-tick
  :class:`~repro.env.sharding.ReplicaDelta` while its believed epoch
  chains; any discontinuity (a tick with no usable delta, a publisher
  restart, an engine restoring an earlier state) degrades that
  subscriber to a snapshot;
* a **stale subscriber** -- one whose replica could not apply a delta
  -- reports ``STALE`` upstream; the publisher marks it replica-less
  and re-sends the snapshot at the next publish (the async analogue of
  the worker pool's same-tick STALE/snapshot round trip);
* a **dead or byzantine peer** (dropped socket mid-delta, stalled
  reader, version-byte mismatch, oversized frame) is dropped; the
  frame guard in :class:`~repro.serve.transport.SocketTransport` plus
  per-peer timeouts mean no peer can wedge the publish stage.

Subscriber messages are polled non-blocking at each publish, so the
whole publisher is single-threaded and runs inline in the engine's
tick loop.
"""

from __future__ import annotations

import logging
import socket
import time
from dataclasses import dataclass

from ..env.sharding import NO_REPLICA, EpochUpdate
from ..obs import NULL_REGISTRY, TID_PUBLISHER, RegistryStats
from .transport import FrameError, SocketTransport

logger = logging.getLogger("repro.serve.publisher")

#: Subscriber -> publisher message tags.
SUB_STALE = "sub_stale"

#: How long one stalled subscriber may hold the publish stage before it
#: is dropped (seconds).
SEND_TIMEOUT = 5.0


class PublisherStats(RegistryStats):
    """Publish/fault counters a :class:`ReplicaPublisher` accumulates.

    Attribute reads and writes behave exactly like the dataclass this
    replaces; with a metrics registry bound at construction each field
    is a registry cell (the ``publisher_*`` series).  ``stale_snapshots``
    counts STALE reports that downgraded a subscriber to the snapshot
    path; ``drops`` counts subscribers removed for transport failure or
    protocol violation (also exposed per-reason as
    ``publisher_drops_total{reason=...}`` and logged at WARNING -- a
    dead or byzantine peer is never dropped silently).
    """

    _PREFIX = "publisher"
    _COUNTER_FIELDS = (
        "ticks",
        "delta_sends",
        "snapshot_sends",
        "stale_snapshots",
        "subscribers_accepted",
        "drops",
        "frame_errors",
        "bytes_sent",
    )
    _GAUGE_FIELDS = {"last_tick_bytes": 0}


@dataclass
class _Subscriber:
    transport: SocketTransport
    address: tuple
    #: Publisher's belief of the subscriber's replica epoch.
    epoch: int = NO_REPLICA


class ReplicaPublisher:
    """Streams epoch-versioned replica updates to socket subscribers:
    the per-tick change set to every subscriber whose epoch chains, the
    snapshot to the rest.  A subscriber that stalls a send for
    :data:`SEND_TIMEOUT` is dropped.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics=None,
        trace=None,
    ):
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._trace = trace
        if trace is not None:
            trace.thread_name(TID_PUBLISHER, "spectator publisher")
        self._m_drop_reasons: dict[str, object] = {}
        self._m_peer_bytes: dict[tuple, object] = {}
        self.stats = PublisherStats(metrics)
        self._subscribers: list[_Subscriber] = []
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(16)
        listener.setblocking(False)
        self._listener = listener
        self.address: tuple[str, int] = listener.getsockname()[:2]

    @property
    def num_subscribers(self) -> int:
        return len(self._subscribers)

    # -- per-peer observability ---------------------------------------------------

    def _drop_counter(self, reason: str):
        inst = self._m_drop_reasons.get(reason)
        if inst is None:
            inst = self._metrics.counter("publisher_drops_total",
                                         reason=reason)
            self._m_drop_reasons[reason] = inst
        return inst

    def _peer_bytes(self, address: tuple):
        inst = self._m_peer_bytes.get(address)
        if inst is None:
            inst = self._metrics.counter(
                "publisher_subscriber_bytes_total",
                peer=f"{address[0]}:{address[1]}",
            )
            self._m_peer_bytes[address] = inst
        return inst

    # -- subscriber lifecycle -----------------------------------------------------

    def poll(self) -> None:
        """Accept pending subscribers and drain their control messages.

        Called automatically at every :meth:`publish`; callers may also
        invoke it directly to pick up joiners between publishes.
        """
        if self._listener is None:
            return
        while True:
            try:
                sock, address = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                break
            except OSError:  # pragma: no cover - listener closed under us
                break
            transport = SocketTransport(sock, timeout=SEND_TIMEOUT)
            self._subscribers.append(
                _Subscriber(transport=transport, address=address)
            )
            self.stats.subscribers_accepted += 1
        for subscriber in list(self._subscribers):
            self._drain_control(subscriber)

    def _drain_control(self, subscriber: _Subscriber) -> None:
        while True:
            try:
                if not subscriber.transport.poll(0.0):
                    return
                message = subscriber.transport.recv()
            except FrameError:
                self.stats.frame_errors += 1
                self._drop(subscriber, reason="frame_error")
                return
            except (EOFError, OSError):
                self._drop(subscriber, reason="transport_error")
                return
            if (
                isinstance(message, tuple)
                and message
                and message[0] == SUB_STALE
            ):
                # reuse PR 3's fault path: a stale replica is re-fed the
                # snapshot at the next publish
                subscriber.epoch = NO_REPLICA
                self.stats.stale_snapshots += 1
            else:
                # a subscriber speaking an unknown control vocabulary is
                # a protocol violation, same as a bad frame
                self.stats.frame_errors += 1
                self._drop(subscriber, reason="protocol_violation")
                return

    def _drop(
        self, subscriber: _Subscriber, *, reason: str = "transport_error"
    ) -> None:
        try:
            subscriber.transport.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if subscriber in self._subscribers:
            self._subscribers.remove(subscriber)
            self.stats.drops += 1
            self._drop_counter(reason).inc()
            logger.warning(
                "dropped spectator subscriber %s:%s (%s); a respawned "
                "replica re-joins as a late joiner and snapshot-catches-up",
                subscriber.address[0], subscriber.address[1], reason,
            )
            if self._trace is not None:
                self._trace.instant(
                    "subscriber_drop", "fault", tid=TID_PUBLISHER,
                    peer=f"{subscriber.address[0]}:{subscriber.address[1]}",
                    reason=reason,
                )

    # -- the publish stage --------------------------------------------------------

    def publish(self, update: EpochUpdate) -> int:
        """Bring every subscriber to ``update.epoch``; returns bytes put
        on the wire.

        Subscribers the update's delta chains for get the delta, the
        rest get the snapshot, and subscribers already at
        ``update.epoch`` are skipped -- so an engine can re-publish the
        current update between ticks (late-joiner catch-up) without
        re-feeding current subscribers.
        """
        self.poll()
        stats = self.stats
        stats.ticks += 1
        stats.last_tick_bytes = 0
        if not self._subscribers:
            return 0
        epoch = update.epoch
        tick_bytes = 0
        for subscriber in list(self._subscribers):
            if subscriber.epoch == epoch:
                continue  # already current; nothing new to ship
            use_delta = update.chains_from(subscriber.epoch)
            blob = update.delta_blob() if use_delta else update.snapshot_blob()
            trace = self._trace
            t0 = time.perf_counter() if trace is not None else 0.0
            try:
                sent = subscriber.transport.send_bytes(blob)
            except (EOFError, OSError):
                # dropped socket (possibly mid-delta on the peer side):
                # remove the subscriber; a respawned replica re-joins as
                # a late joiner and snapshot-catches-up
                self._drop(subscriber, reason="send_failed")
                continue
            if trace is not None:
                trace.complete_perf(
                    "publish_send", "publisher", t0, time.perf_counter(),
                    tid=TID_PUBLISHER, epoch=epoch,
                    peer=f"{subscriber.address[0]}:{subscriber.address[1]}",
                    bytes=sent, mode="delta" if use_delta else "snapshot",
                )
            subscriber.epoch = epoch
            tick_bytes += sent
            self._peer_bytes(subscriber.address).inc(sent)
            if use_delta:
                stats.delta_sends += 1
            else:
                stats.snapshot_sends += 1
        stats.bytes_sent += tick_bytes
        stats.last_tick_bytes = tick_bytes
        return tick_bytes

    def invalidate(self) -> None:
        """Forget what every subscriber holds: each is snapshot-fed at the
        next publish."""
        for subscriber in self._subscribers:
            subscriber.epoch = NO_REPLICA

    def close(self) -> None:
        for subscriber in list(self._subscribers):
            try:
                subscriber.transport.close()
            except OSError:  # pragma: no cover
                pass
        self._subscribers.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
            self._listener = None

    def __enter__(self) -> "ReplicaPublisher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
