"""The spectator read replica: a query server fed by the replica stream.

:class:`SpectatorReplica` spawns a server *process*, handing it the
engine's :class:`~repro.engine.decision.GameDefinition` (the same game
the decision workers receive; its schema and registry are what queries
run against), that

* subscribes to a :class:`~repro.serve.publisher.ReplicaPublisher` over
  :class:`~repro.serve.transport.SocketTransport` and maintains a
  :class:`~repro.env.sharding.ReplicaTable` copy of ``E`` from the
  epoch-versioned snapshot/delta stream (late join, stale epoch, and
  dropped-feed handling exactly as the shard workers do it);
* hands every applied update to a long-lived
  :class:`~repro.serve.queries.QueryEngine`, whose evaluator drops its
  indexes with every epoch, as the decision workers' do, and which
  rebuilds what the previous epoch's queries probed before it answers
  at the new epoch;
* listens on its own loopback/TCP port and answers
  :class:`~repro.serve.queries.QueryRequest`\\ s from any number of
  :class:`SpectatorClient`\\ s, each answer pinned to one consistent
  replica epoch -- queries interleave with feed updates in a single
  event loop, so an answer can never observe a half-applied tick.

Epoch pinning: ``epoch="latest"`` answers at whatever epoch the replica
holds; an integer epoch parks the request until the feed reaches that
epoch (bounded by the request's timeout).  An epoch the replica has
already advanced past is answered by **time travel**: the spectator
retains a bounded :class:`~repro.persist.history.EpochHistory` of
applied updates (checkpoints every ``history_checkpoint_every`` epochs,
the last ``history_retain`` epochs kept), reconstructs the rows at the
pinned epoch by replaying forward from the nearest checkpoint, and
answers through the same :class:`~repro.serve.queries.QueryEngine` path
as live queries -- so historical answers are bit-identical to what the
authoritative engine answered at that epoch.  Epochs older than the
retained span fail loudly.

The simulation never blocks on spectators: the publisher's send is the
only coupling, and a slow or dead spectator is dropped there.
"""

from __future__ import annotations

import selectors
import time
import traceback
from dataclasses import dataclass

from ..env.sharding import (
    NO_REPLICA,
    UPDATE_SNAPSHOT,
    ReplicaTable,
    StaleReplicaError,
)
from ..env.table import EnvironmentTable
from .publisher import SUB_STALE
from .queries import QueryAnswer, QueryError, build_request
from .transport import (
    ERROR,
    READY,
    STARTUP_TIMEOUT,
    FrameError,
    SocketTransport,
    await_ready,
    start_child,
    unpickle_frame,
)

#: Client -> spectator request tags.
REQ_QUERY = "query"
REQ_STATUS = "status"
REQ_METRICS = "metrics"  # pull-model observability view
REQ_SET_EPOCH = "set_epoch"  # fault-injection hook (tests/chaos drills)
REQ_STOP = "stop"

#: Spectator -> client reply tags.
RESP_OK = "ok"
RESP_ERROR = "error"

#: How long a pinned-epoch query may park awaiting its epoch (seconds);
#: clients may override per request.
DEFAULT_QUERY_TIMEOUT = 30.0


class SpectatorError(RuntimeError):
    """A spectator request failed (server-side error string attached)."""


@dataclass
class _PendingQuery:
    """A pinned-epoch query parked until the feed catches up."""

    transport: SocketTransport
    request: object
    deadline: float


class _SpectatorServer:
    """The in-process event loop behind a spawned spectator replica."""

    def __init__(self, game, publisher_address, history_retain: int,
                 history_checkpoint_every: int, host: str):
        import socket

        from .queries import QueryEngine

        self.game = game
        self.replica = ReplicaTable(game.schema.key)
        self.engine = QueryEngine(game.schema, game.registry)
        # bounded epoch history for time-travel queries; retain=0 turns
        # it off (superseded-epoch pins then fail as they always did)
        self.history = None
        if history_retain > 0:
            from ..persist.history import EpochHistory

            self.history = EpochHistory(
                game.schema.key,
                checkpoint_every=history_checkpoint_every,
                retain=history_retain,
            )
        #: Lazily-built query engine over one reconstructed historical
        #: epoch; cached so repeated queries at the same epoch replay
        #: (and rebuild indexes) once, and dropped with every snapshot,
        #: which is how a restored (earlier) timeline arrives.
        self._history_engine: tuple[int, QueryEngine] | None = None
        # a finite feed timeout keeps the single-threaded event loop
        # unwedgeable: a publisher that stalls mid-frame (half-open
        # connection, network partition) surfaces as a transport error
        # and the replica keeps serving its last epoch, mirroring the
        # publisher's own send-timeout guard on the other side
        self.feed = SocketTransport.connect(
            tuple(publisher_address), timeout=60.0
        )
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind((host, 0))
        listener.listen(16)
        listener.setblocking(False)
        self.listener = listener
        self.address = listener.getsockname()[:2]
        self.feed_alive = True
        self.pending: list[_PendingQuery] = []
        self.updates_applied = 0
        self.snapshots_applied = 0
        self.stale_reports = 0

    # -- feed handling ------------------------------------------------------------

    def apply_update(self, update, frame: bytes | None = None) -> None:
        """Apply one snapshot/delta update to the replica and the
        indexes; *frame* is the update as received (the history keeps
        a delta's frame, not the decoded delta)."""
        try:
            self.replica.apply(update)
        except StaleReplicaError:
            # can't absorb this delta; drop the replica (it may have
            # half-applied) and ask the publisher for a snapshot
            self.replica.invalidate()
            self.stale_reports += 1
            self.feed.send((SUB_STALE, NO_REPLICA))
            return
        self.engine.begin(self._replica_env())
        if update[0] == UPDATE_SNAPSHOT:
            self.snapshots_applied += 1
            self._history_engine = None
            if self.history is not None:
                self.history.record_snapshot(
                    self.replica.epoch, self.replica.rows
                )
        elif self.history is not None:
            # safe to retain by reference: delta application never
            # mutates a row in place, so epoch-k row objects stay the
            # epoch-k state forever
            self.history.record_delta(update[1], self.replica.rows, frame)
        self.updates_applied += 1

    def _replica_env(self) -> EnvironmentTable:
        env = EnvironmentTable(self.game.schema)
        env.rows.extend(self.replica.rows)
        return env

    def drain_feed(self) -> None:
        while self.feed_alive and self.feed.poll(0.0):
            try:
                frame = self.feed.recv_bytes()
                self.apply_update(unpickle_frame(frame), frame)
            except (EOFError, OSError):
                # publisher gone: keep answering at the last held epoch
                self.feed_alive = False

    # -- request handling ---------------------------------------------------------

    def handle_request(self, transport: SocketTransport, message) -> bool:
        """Serve one client message; returns False when asked to stop."""
        tag = message[0] if isinstance(message, tuple) and message else None
        if tag == REQ_QUERY:
            request = message[1]
            deadline = time.monotonic() + float(
                message[2] if len(message) > 2 else DEFAULT_QUERY_TIMEOUT
            )
            if not self._try_answer(transport, request):
                self.pending.append(
                    _PendingQuery(transport, request, deadline)
                )
            return True
        if tag == REQ_STATUS:
            transport.send(
                (
                    RESP_OK,
                    {
                        "epoch": self.replica.epoch,
                        "rows": len(self.replica.rows),
                        "feed_alive": self.feed_alive,
                        "updates_applied": self.updates_applied,
                        "snapshots_applied": self.snapshots_applied,
                        "stale_reports": self.stale_reports,
                        "engine_stats": dict(self.engine.stats),
                        "evaluator_stats": dict(self.engine.evaluator.stats),
                        "history_span": (
                            None if self.history is None else self.history.span()
                        ),
                        "history_bytes": (
                            0 if self.history is None
                            else self.history.history_bytes
                        ),
                    },
                )
            )
            return True
        if tag == REQ_METRICS:
            registry = self._metrics_registry()
            transport.send(
                (
                    RESP_OK,
                    {
                        "snapshot": registry.snapshot(),
                        "prometheus": registry.render_prometheus(),
                    },
                )
            )
            return True
        if tag == REQ_SET_EPOCH:  # fault injection: pretend to drift
            self.replica.epoch = message[1]
            transport.send((RESP_OK, self.replica.epoch))
            return True
        if tag == REQ_STOP:
            transport.send((RESP_OK, None))
            return False
        transport.send((RESP_ERROR, f"unknown request {tag!r}"))
        return True

    def _metrics_registry(self):
        """Build the pull-model metrics view of this replica.

        The replica's hot path (feed application, query answering)
        records nothing extra; each ``REQ_METRICS`` populates a fresh
        registry from the counters the server already keeps -- zero
        steady-state cost, paid only by the scraper.
        """
        from ..obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.gauge("spectator_epoch").set(self.replica.epoch)
        registry.gauge("spectator_rows").set(len(self.replica.rows))
        registry.gauge("spectator_feed_alive").set(int(self.feed_alive))
        registry.counter("spectator_updates_applied_total").inc(
            self.updates_applied
        )
        registry.counter("spectator_snapshots_applied_total").inc(
            self.snapshots_applied
        )
        registry.counter("spectator_stale_reports_total").inc(
            self.stale_reports
        )
        registry.gauge("spectator_history_bytes").set(
            0 if self.history is None else self.history.history_bytes
        )
        for key, value in self.engine.stats.items():
            registry.counter(f"queries_{key}").value = value
        for key, value in self.engine.evaluator.stats.items():
            registry.counter(f"evaluator_{key}").value = value
        return registry

    def _try_answer(self, transport: SocketTransport, request) -> bool:
        """Answer now if the pinned epoch allows it; True when replied."""
        held = self.replica.epoch
        wanted = getattr(request, "epoch", "latest")
        if wanted == "latest":
            if held == NO_REPLICA:
                return False  # no replica yet: park until the first feed
        elif not isinstance(wanted, int):
            self._send_reply(
                transport, (RESP_ERROR, f"bad epoch {wanted!r}")
            )
            return True
        elif held == NO_REPLICA or held < wanted:
            return False  # park until the feed reaches the epoch
        elif held > wanted:
            # time travel: the live replica moved past the pinned epoch,
            # but the retained history may still reconstruct it
            self._answer_historical(transport, request, wanted, held)
            return True
        try:
            value = self.engine.answer(request)
            reply = (RESP_OK, QueryAnswer(epoch=self.replica.epoch, value=value))
        except QueryError as exc:
            reply = (RESP_ERROR, str(exc))
        except Exception:  # noqa: BLE001 - surface, never kill the loop
            reply = (RESP_ERROR, traceback.format_exc())
        self._send_reply(transport, reply)
        return True

    def _answer_historical(
        self, transport: SocketTransport, request, wanted: int, held: int
    ) -> None:
        """Answer a query pinned to an epoch the replica moved past.

        Reconstructs the rows at *wanted* from the retained history
        (nearest checkpoint + deltas forward -- the same replica
        machinery the live feed uses) and evaluates through a fresh
        :class:`~repro.serve.queries.QueryEngine` over them: the
        identical evaluation path as a live answer, hence bit-identical
        to what the authoritative engine answered at that epoch.
        """
        history = self.history
        if history is None or not history.covers(wanted):
            span = None if history is None else history.span()
            retained = (
                "history disabled (history_retain=0)"
                if history is None
                else f"history retains epochs {span[0]}..{span[1]}"
                if span
                else "history is empty"
            )
            self._send_reply(
                transport,
                (
                    RESP_ERROR,
                    f"epoch {wanted} already superseded (replica at "
                    f"{held}) and not reconstructible: {retained}",
                ),
            )
            return
        try:
            engine = self._engine_at(wanted)
            value = engine.answer(request)
            reply = (RESP_OK, QueryAnswer(epoch=wanted, value=value))
        except QueryError as exc:
            reply = (RESP_ERROR, str(exc))
        except Exception:  # noqa: BLE001 - surface, never kill the loop
            reply = (RESP_ERROR, traceback.format_exc())
        self._send_reply(transport, reply)

    def _engine_at(self, epoch: int):
        """A query engine over the reconstructed rows at *epoch* (cached)."""
        from .queries import QueryEngine

        cached = self._history_engine
        if cached is not None and cached[0] == epoch:
            return cached[1]
        rows = self.history.reconstruct(epoch)
        env = EnvironmentTable(self.game.schema)
        env.rows.extend(rows)
        engine = QueryEngine(self.game.schema, self.game.registry)
        engine.begin(env)
        self._history_engine = (epoch, engine)
        return engine

    def _send_reply(self, transport: SocketTransport, reply) -> None:
        try:
            transport.send(reply)
        except (EOFError, OSError):
            pass  # client went away; its selector entry cleans up on read

    def retry_pending(self) -> None:
        now = time.monotonic()
        still: list[_PendingQuery] = []
        for item in self.pending:
            if self._try_answer(item.transport, item.request):
                continue
            if now >= item.deadline:
                self._send_reply(
                    item.transport,
                    (
                        RESP_ERROR,
                        f"timed out waiting for epoch "
                        f"{getattr(item.request, 'epoch', 'latest')!r} "
                        f"(replica at {self.replica.epoch}, feed "
                        f"{'alive' if self.feed_alive else 'closed'})",
                    ),
                )
                continue
            still.append(item)
        self.pending = still

    # -- the event loop -----------------------------------------------------------

    def run(self) -> None:
        sel = selectors.DefaultSelector()
        sel.register(self.feed, selectors.EVENT_READ, "feed")
        sel.register(self.listener, selectors.EVENT_READ, "accept")
        running = True
        while running:
            timeout = 0.05 if self.pending else 0.5
            for key, _ in sel.select(timeout):
                what = key.data
                if what == "feed":
                    self.drain_feed()
                    if not self.feed_alive:
                        sel.unregister(self.feed)
                        self.feed.close()
                elif what == "accept":
                    try:
                        sock, _addr = self.listener.accept()
                    except (BlockingIOError, InterruptedError):
                        continue
                    client = SocketTransport(sock, timeout=30.0)
                    sel.register(client, selectors.EVENT_READ, ("client", client))
                else:
                    _, client = what
                    try:
                        message = client.recv()
                    except (FrameError, EOFError, OSError):
                        sel.unregister(client)
                        client.close()
                        self.pending = [
                            p for p in self.pending if p.transport is not client
                        ]
                        continue
                    if not self.handle_request(client, message):
                        running = False
            self.retry_pending()
        sel.close()
        if self.feed_alive:
            self.feed.close()
        self.listener.close()


def _spectator_main(sock, game, publisher_address, *settings):
    """Entry point of the spawned spectator process."""
    with SocketTransport(sock) as handshake:
        try:
            server = _SpectatorServer(game, publisher_address, *settings)
        except BaseException:
            handshake.send((ERROR, traceback.format_exc()))
            return
        handshake.send((READY, server.address))
    try:
        server.run()
    except KeyboardInterrupt:  # pragma: no cover - parent teardown
        pass


class SpectatorReplica:
    """Parent-side handle of a spawned spectator replica process."""

    def __init__(self, process, address: tuple[str, int]):
        self.process = process
        self.address = address

    @classmethod
    def spawn(
        cls,
        publisher_address: tuple[str, int],
        game,
        *,
        history_retain: int = 256,
        history_checkpoint_every: int = 32,
        host: str = "127.0.0.1",
    ) -> "SpectatorReplica":
        """Start a spectator subscribed to *publisher_address*.

        *game* is the engine's
        :class:`~repro.engine.decision.GameDefinition`, shipped as the
        worker pool ships it (inherited under fork, pickled once under
        spawn); the spectator answers with its schema and registry.
        Time travel keeps the last *history_retain* epochs (0 turns it
        off), with a checkpoint every *history_checkpoint_every*; the
        spectator answers clients on *host*, on an ephemeral port.
        """
        process, handshake = start_child(
            _spectator_main,
            (
                game, publisher_address,
                history_retain, history_checkpoint_every, host,
            ),
        )
        address = await_ready(
            handshake, "spectator replica", process=process,
            timeout=STARTUP_TIMEOUT, error=SpectatorError,
        )
        handshake.close()
        return cls(process, tuple(address))

    def client(self, **kwargs) -> "SpectatorClient":
        return SpectatorClient(self.address, **kwargs)

    def kill(self) -> None:
        """Hard-kill the process (fault-injection drills)."""
        self.process.kill()
        self.process.join(timeout=5)

    def close(self) -> None:
        """Stop the server (graceful request, then terminate fallback)."""
        if not self.process.is_alive():
            return
        try:
            with SpectatorClient(self.address, timeout=5.0) as client:
                client.stop_server()
        except (SpectatorError, OSError, EOFError):
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - stuck server
            self.process.terminate()
            self.process.join(timeout=5)

    def __enter__(self) -> "SpectatorReplica":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SpectatorClient:
    """Request/response client for one spectator replica.

    ``query`` accepts a registered aggregate name, a canned kind
    (``team_counts`` / ``hp_histogram`` / ``knn``), or SGL source text
    (``function F(...) returns SELECT ...``), plus positional arguments
    (use :func:`~repro.serve.queries.unit_ref` for row-valued ones) and
    an *epoch* pin.  Returns a
    :class:`~repro.serve.queries.QueryAnswer` carrying the value and
    the epoch it was answered at.
    """

    def __init__(
        self, address: tuple[str, int], *, timeout: float = DEFAULT_QUERY_TIMEOUT
    ):
        self.timeout = timeout
        self._transport = SocketTransport.connect(
            tuple(address), timeout=timeout + 5.0
        )

    def _round_trip(self, message, wait: float | None = None):
        """One request/reply exchange.

        The socket timeout always out-waits the server's own deadline
        (*wait* + grace), so the server's timed-out-reply error arrives
        instead of a client-side timeout.  If the socket does time out
        anyway (dead server, stalled link), the connection is closed:
        a late reply landing on a reused stream would desynchronize
        request/reply pairing and hand back an answer for the wrong
        query.
        """
        if wait is not None:
            self._transport.settimeout(wait + 5.0)
        try:
            self._transport.send(message)
            reply = self._transport.recv()
        except TimeoutError:
            self._transport.close()
            raise SpectatorError(
                "spectator did not reply in time; connection closed "
                "(a reply may still be in flight and cannot be re-paired)"
            ) from None
        except FrameError as exc:
            # a torn or desynced frame poisons request/reply pairing the
            # same way a late reply does: close rather than resync
            self._transport.close()
            raise SpectatorError(
                f"spectator stream desynchronized ({exc}); connection closed"
            ) from None
        tag = reply[0]
        if tag == RESP_ERROR:
            raise SpectatorError(reply[1])
        if tag != RESP_OK:  # pragma: no cover - protocol bug
            raise SpectatorError(f"unexpected reply tag {tag!r}")
        return reply[1]

    def query(
        self,
        source_or_name: str,
        *args: object,
        epoch: object = "latest",
        timeout: float | None = None,
        **params: object,
    ) -> QueryAnswer:
        request = build_request(
            source_or_name, tuple(args), epoch=epoch, **params
        )
        wait = timeout if timeout is not None else self.timeout
        return self._round_trip((REQ_QUERY, request, wait), wait=wait)

    def status(self) -> dict:
        return self._round_trip((REQ_STATUS,))

    def metrics(self) -> dict:
        """The replica's live metrics view: ``{"snapshot": {series ->
        value}, "prometheus": <text exposition>}`` -- populated on
        demand server-side, so scraping costs the replica nothing
        between requests."""
        return self._round_trip((REQ_METRICS,))

    def debug_set_epoch(self, epoch: int) -> int:
        """Fault injection: drift the replica's believed epoch."""
        return self._round_trip((REQ_SET_EPOCH, epoch))

    def stop_server(self) -> None:
        self._round_trip((REQ_STOP,))

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "SpectatorClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
