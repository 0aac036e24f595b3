"""Worker-process side of the sharded tick pipeline: stateful replicas.

``parallelism="processes"`` runs the decision stage of each shard in a
pool of long-lived local worker processes.  Workers cannot share the
engine's in-memory state, so the protocol is explicitly
message-shaped: every worker is one
:class:`~repro.serve.transport.SocketTransport` session of one
addressed request/reply protocol, on its end of a private
``socket.socketpair()``.  A worker (:func:`_local_worker_main`) builds
its state, answers ``READY`` (or ``ERROR`` with the traceback), then
serves ticks.  Unlike the spectator publisher's fire-and-forget feed,
every worker message is addressed and every tick is acknowledged with
the worker's replica epoch, which the coordinator verifies.

Workers are **stateful replica holders** rather than stateless RPC
targets:

* **at session start** each worker receives the engine's
  :class:`~repro.engine.decision.GameDefinition` -- schema, registry,
  scripts and script selector, plain data: inherited by a forked
  worker, pickled once per session for a spawned one -- and builds the
  engine's own
  :class:`~repro.engine.decision.DecisionStage` over it, with a private
  evaluator.  Compiled code and index structures never cross the
  process boundary; the scripts a mod edited before the pool started
  do;
* **per tick** :meth:`ReplicaWorkerPool.run_tick` is handed the
  tick-start state's :class:`~repro.env.sharding.EpochUpdate` -- the
  object the spectator publisher and the epoch log consumed at the end
  of the previous tick -- and ships each worker one *update blob* from
  it: a ``SNAPSHOT`` (full row broadcast, stamping a new replica epoch)
  or an epoch-chained ``DELTA``
  (:class:`~repro.env.sharding.ReplicaDelta`), each pickled at most
  once, plus the ids of the shards the worker decides this tick.  The
  worker applies the update to its retained replica of ``E``, runs its
  shards' decisions over indexes rebuilt from that replica, and returns
  plain effect rows, :class:`~repro.engine.effects.AoeRecord` tuples,
  and an **epoch ack** the coordinator verifies;
* **fault paths** degrade to snapshots, never to wrong answers: a
  worker holding the wrong epoch replies ``STALE`` and is re-sent a
  snapshot in the same tick; a worker that died is respawned, starts
  replica-less and rejoins from a snapshot within the tick.

Every worker keeps a *full* replica of ``E``: aggregate queries range
over all of ``E`` regardless of which shard's unit asks, so a worker
answers every probe and action of its shards locally and the only
traffic inside a tick is the update going out and the reply coming back.
Its indexes span the whole replica too, exactly as the serial engine's
do.  The shard layout arrives once, in the payload that opens the
session, and only picks out which units the worker decides; no update
carries it, so one evaluator and one shard function serve the whole
session.

Determinism: the per-tick random function is counter-mode
(``TickRandom`` is a pure function of seed, tick, unit key, and draw
index), every evaluator merge tie-breaks on unit keys, and the replica
reproduces the coordinator's flat row order exactly, so worker answers
are bit-identical to the serial engine's no matter how shards are
scheduled or whether a tick arrived as a delta or a snapshot.
"""

from __future__ import annotations

import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Mapping, cast

from ..env.sharding import (
    NO_REPLICA,
    EpochUpdate,
    ReplicaTable,
    StaleReplicaError,
    make_sharder,
    partition_rows,
)
from ..env.table import EnvironmentTable
from ..obs import NULL_REGISTRY, TID_WORKER_BASE, RegistryStats
from ..serve.transport import (
    DEFAULT_MAX_FRAME,
    ERROR,
    READY,
    SocketTransport,
    await_ready,
    start_child,
)
from .decision import DecisionStage, GameDefinition
from .effects import AoeRecord
from .rng import TickRandom

#: Message tags, coordinator -> worker.
MSG_TICK = "tick"
MSG_STOP = "stop"
MSG_SET_EPOCH = "set_epoch"  # fault-injection hook (tests/chaos drills)
MSG_DROP = "drop"  # fault-injection hook: vanish without replying

#: Reply tags, worker -> coordinator; a session opens with the
#: transport's READY / ERROR handshake.
REPLY_READY = READY
REPLY_OK = "ok"
REPLY_STALE = "stale"
REPLY_ERROR = ERROR
REPLY_EPOCH = "epoch"


# ---------------------------------------------------------------------------
# Worker-side state and session loop
# ---------------------------------------------------------------------------


class _WorkerState:
    """One worker session: the engine's decision stage over a replica."""

    def __init__(self, game: GameDefinition, payload: Mapping[str, object]):
        self.stage = DecisionStage(
            game,
            TickRandom(int(payload["seed"]), key_attr=game.schema.key),
            mode=str(payload["mode"]),
        )
        # the coordinator's (shard_by, num_shards, extent): it
        # picks out the units of this worker's shards, and nothing else
        # (indexes span all of E)
        shard_by, self.num_shards, extent = cast(
            "tuple[str, int, float | None]", payload["shard_conf"]
        )
        self.shard_of = make_sharder(shard_by, self.num_shards, extent=extent)
        # the replica of E (row order, key -> row, epoch held) -- the
        # same holder-side protocol object the spectator replicas use
        self.replica = ReplicaTable(game.schema.key)

    # -- the decision stage ------------------------------------------------------

    def decide(
        self, tick: int, shard_ids: list[int]
    ) -> list[tuple[int, list[dict[str, object]], list[AoeRecord]]]:
        """Run the decision stage for the given shards over the replica.

        Results come back per shard (tagged with the shard id) so the
        parent's ⊕-merge keeps its ascending-shard-id order.
        """
        stage = self.stage
        rows = self.replica.rows
        env = EnvironmentTable(stage.game.schema)
        env.rows.extend(rows)
        stage.rng.advance(tick)
        # the same partition as the coordinator's stage 0, so each
        # shard's units keep the flat row order
        parts = partition_rows(rows, self.num_shards, self.shard_of)
        by_key = stage.begin_tick(env, self.replica.by_key)
        results = stage.decide(env, [parts[i] for i in shard_ids], by_key)
        return [
            (shard_id, effect_rows, aoe_records)
            for shard_id, (effect_rows, aoe_records) in zip(shard_ids, results)
        ]


def _worker_loop(transport: SocketTransport, state: _WorkerState) -> None:
    """Serve one coordinator session until STOP, DROP or EOF."""
    while True:
        try:
            msg = transport.recv()
        except (EOFError, OSError):  # coordinator vanished
            return
        tag = msg[0]
        if tag == MSG_STOP or tag == MSG_DROP:  # DROP: vanish without a word
            return
        if tag == MSG_SET_EPOCH:  # fault injection: pretend to drift
            state.replica.epoch = msg[1]
            transport.send((REPLY_EPOCH, state.replica.epoch))
            continue
        _, blob, tick, shard_ids = msg
        try:
            state.replica.apply(pickle.loads(blob))
            results = state.decide(tick, shard_ids)
            transport.send((REPLY_OK, state.replica.epoch, results))
        except StaleReplicaError:
            # replica cannot absorb this update; ask for a snapshot.
            # Drop the replica: a failed delta may have half-applied.
            state.replica.invalidate()
            transport.send((REPLY_STALE, state.replica.epoch))
        except BaseException:
            transport.send((REPLY_ERROR, traceback.format_exc()))


def _local_worker_main(
    sock, game: GameDefinition, payload: dict, max_frame: int
) -> None:
    """Entry point of a worker process: one session on its end of the
    pool's socketpair (no I/O timeout, as the parent has none).  Build
    the worker state, reply ``READY`` (or ``ERROR`` with the traceback),
    then serve ticks until the session ends."""
    with SocketTransport(sock, max_frame=max_frame) as transport:
        try:
            try:
                state = _WorkerState(game, payload)
            except BaseException:
                transport.send((REPLY_ERROR, traceback.format_exc()))
                return
            transport.send((REPLY_READY, None))
            _worker_loop(transport, state)
        except OSError:  # pragma: no cover - parent raced away
            pass


# ---------------------------------------------------------------------------
# Coordinator side: the addressed worker pool
# ---------------------------------------------------------------------------


@dataclass
class _WorkerHandle:
    transport: SocketTransport
    process: object
    #: Coordinator's belief of the worker's replica epoch.
    epoch: int = NO_REPLICA

    @property
    def name(self) -> str:
        return f"local worker (pid {self.process.pid})"

    def ready(self) -> "_WorkerHandle":
        """Wait for the fresh session's ``READY``; an init error raises
        ``RuntimeError`` with the worker's traceback."""
        await_ready(self.transport, self.name, process=self.process)
        return self


class PoolStats(RegistryStats):
    """Broadcast/fault counters a :class:`ReplicaWorkerPool` accumulates.

    Attribute reads and writes behave exactly like the dataclass this
    replaces; when the pool is built with a metrics registry each field
    is a registry cell (the ``worker_*`` series), so the old accessors
    are views over the exported metrics.  ``last_tick_bytes`` is the
    most recent tick's broadcast payload.
    """

    _PREFIX = "worker"
    _COUNTER_FIELDS = (
        "delta_broadcasts",
        "snapshot_broadcasts",
        "stale_snapshots",
        "respawns",
        "bytes_broadcast",
        "ticks",
    )
    _GAUGE_FIELDS = {"last_tick_bytes": 0}


class ReplicaWorkerPool:
    """An addressed pool of stateful replica-holding workers.

    Unlike an executor pool, messages are addressed to *specific*
    workers -- replica state lives in the worker, so the coordinator
    must know (and verify, via epoch acks) what each worker holds.
    Every worker is one :class:`SocketTransport` session on a private
    socketpair, guarded by *max_frame*.  The spectator publisher speaks
    the same update blobs, fire-and-forget, on its own sockets.
    """

    def __init__(
        self,
        game: GameDefinition,
        payload: dict,
        num_workers: int,
        mp_context=None,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        metrics=None,
        trace=None,
    ):
        self._game = game
        self._payload = payload
        self._max_frame = max_frame
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._trace = trace
        self.stats = PoolStats(metrics)
        # per-worker instruments / trace tracks, resolved lazily
        self._m_rtt: dict[int, object] = {}
        self._m_bytes: dict[int, object] = {}
        self._named_tids: set[int] = set()
        self._ctx = mp_context
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.workers: list[_WorkerHandle] = []
        try:
            # start every process before waiting on any, so the
            # workers build their state in parallel
            self.workers = [self._spawn() for _ in range(num_workers)]
            for worker in self.workers:
                worker.ready()
        except BaseException:
            self.close()
            raise

    # -- per-worker observability -------------------------------------------------

    def _worker_rtt(self, index: int):
        """The ``worker_rtt_seconds{worker=i}`` histogram, cached."""
        inst = self._m_rtt.get(index)
        if inst is None:
            inst = self._metrics.histogram("worker_rtt_seconds", worker=index)
            self._m_rtt[index] = inst
        return inst

    def _worker_bytes(self, index: int):
        inst = self._m_bytes.get(index)
        if inst is None:
            inst = self._metrics.counter(
                "worker_broadcast_bytes_total", worker=index
            )
            self._m_bytes[index] = inst
        return inst

    def _worker_tid(self, index: int) -> int:
        """Worker *index*'s trace track, named on first use."""
        tid = TID_WORKER_BASE + index
        if index not in self._named_tids:
            self._named_tids.add(index)
            self._trace.thread_name(tid, f"worker {index} round trip")
        return tid

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    # -- worker lifecycle ---------------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        """Start one local worker; :meth:`_WorkerHandle.ready` waits."""
        process, transport = start_child(
            _local_worker_main,
            (self._game, self._payload, self._max_frame),
            mp_context=self._ctx,
            max_frame=self._max_frame,
        )
        return _WorkerHandle(transport=transport, process=process)

    def _respawn(self, index: int) -> _WorkerHandle:
        """Replace a dead worker with a fresh, replica-less one."""
        old = self.workers[index]
        old.transport.close()
        if old.process.is_alive():  # pragma: no cover - defensive
            old.process.terminate()
        old.process.join(timeout=5)
        self.workers[index] = self._spawn().ready()
        self.stats.respawns += 1
        if self._trace is not None:
            self._trace.instant(
                "worker_respawn", "fault",
                tid=self._worker_tid(index), worker=index,
            )
        return self.workers[index]

    # -- the per-tick broadcast ----------------------------------------------------

    def run_tick(
        self,
        tick: int,
        bundles: list[tuple[int, list[int]]],
        update: EpochUpdate,
    ) -> dict[int, tuple[list[dict[str, object]], list[AoeRecord]]]:
        """One tick: bring every bundled worker's replica to
        ``update.epoch`` and gather per-shard results.

        *bundles* pairs worker indexes with the shard ids they decide.
        *update* is the tick-start state: its delta goes to workers it
        chains for, the snapshot to everyone else -- fresh, respawned,
        drifted, or after a restore (whose update carries no delta).
        Epoch acks are verified against ``update.epoch``; a ``STALE``
        reply or a dead worker falls back to the snapshot within the
        same tick, and a dead worker is respawned at most once per tick
        before the failure is considered persistent.

        Returns ``{shard_id: (effect_rows, aoe_records)}``.
        """
        from multiprocessing import connection as mp_connection

        epoch = update.epoch
        stats = self.stats
        tick_bytes = 0
        revived: set[int] = set()
        stale_retries: dict[int, int] = {}
        #: worker index -> perf_counter at its most recent update send;
        #: the REPLY_OK arrival closes the round-trip span against it.
        sent_at: dict[int, float] = {}

        def send_update(
            worker_index: int, shard_ids: list[int], *, allow_delta: bool
        ) -> None:
            nonlocal tick_bytes
            worker = self.workers[worker_index]
            use_delta = allow_delta and update.chains_from(worker.epoch)
            blob = update.delta_blob() if use_delta else update.snapshot_blob()
            if len(blob) > self._max_frame:
                # caught before the transport refuses locally: an
                # oversized update is a configuration problem, not a
                # dead worker -- reviving and retrying the same blob
                # would only bury the actionable cause
                raise RuntimeError(
                    f"update blob of {len(blob)} bytes exceeds the "
                    f"transport frame guard (max_frame={self._max_frame}) "
                    f"for {worker.name}; the pool's max_frame must admit "
                    "a full snapshot"
                )
            worker.transport.send((MSG_TICK, blob, tick, shard_ids))
            sent_at[worker_index] = time.perf_counter()
            # counters record *delivered* updates: a send that raised
            # does not inflate the counts for a blob nobody received
            if use_delta:
                stats.delta_broadcasts += 1
            else:
                stats.snapshot_broadcasts += 1
            tick_bytes += len(blob)
            self._worker_bytes(worker_index).inc(len(blob))

        def revive(worker_index: int, shard_ids: list[int]) -> None:
            """Replace a dead worker and snapshot-feed it, once per tick."""
            if worker_index in revived:
                raise RuntimeError(
                    "shard worker died again immediately after its "
                    "respawn; the game likely fails to load persistently"
                )
            revived.add(worker_index)
            self._respawn(worker_index)
            try:
                # a fresh holder chains no delta
                send_update(worker_index, shard_ids, allow_delta=False)
            except (BrokenPipeError, ConnectionError, OSError) as exc:
                raise RuntimeError(
                    "shard worker died again immediately after its "
                    "respawn; the game likely fails to load persistently"
                ) from exc

        pending: dict[int, list[int]] = {}
        for worker_index, shard_ids in bundles:
            if not shard_ids:
                continue
            try:
                send_update(worker_index, shard_ids, allow_delta=True)
            except (BrokenPipeError, ConnectionError, OSError):
                revive(worker_index, shard_ids)
            pending[worker_index] = shard_ids

        out: dict[int, tuple[list, list]] = {}
        while pending:
            by_transport = {
                self.workers[wi].transport: wi for wi in pending
            }
            try:
                # block until someone has something: a long decision
                # stage is legitimate idle time, so no deadline here --
                # a dead worker closes its end, which reads as EOF
                # (readable -> recv error -> revive)
                ready = mp_connection.wait(list(by_transport), timeout=None)
            except OSError:  # pragma: no cover - an fd closed under us
                ready = list(by_transport)
            for transport in ready:
                worker_index = by_transport[transport]
                shard_ids = pending[worker_index]
                try:
                    reply = transport.recv()
                except (EOFError, OSError):
                    # died after its update was sent: rejoin it from a
                    # snapshot within the same tick
                    revive(worker_index, shard_ids)
                    continue
                tag = reply[0]
                if tag == REPLY_STALE:
                    # a snapshot always applies, so one retry suffices;
                    # a worker that refuses the snapshot too is broken
                    stale_retries[worker_index] = (
                        stale_retries.get(worker_index, 0) + 1
                    )
                    if stale_retries[worker_index] > 1:
                        raise RuntimeError(
                            f"worker {worker_index} reported STALE for a "
                            "snapshot broadcast; replica protocol is broken"
                        )
                    stats.stale_snapshots += 1
                    if self._trace is not None:
                        self._trace.instant(
                            "stale_snapshot", "fault",
                            tid=self._worker_tid(worker_index),
                            epoch=epoch, worker=worker_index,
                        )
                    try:
                        send_update(
                            worker_index, shard_ids, allow_delta=False
                        )
                    except (BrokenPipeError, ConnectionError, OSError):
                        revive(worker_index, shard_ids)
                    continue
                if tag == REPLY_ERROR:
                    raise RuntimeError(f"shard worker failed:\n{reply[1]}")
                if tag != REPLY_OK:  # pragma: no cover - protocol bug
                    raise RuntimeError(f"unexpected worker reply {tag!r}")
                _, acked, results = reply
                if acked != epoch:
                    raise RuntimeError(
                        f"worker {worker_index} acked epoch {acked}, "
                        f"coordinator expected {epoch}"
                    )
                self.workers[worker_index].epoch = acked
                t_sent = sent_at.get(worker_index)
                if t_sent is not None:
                    t_reply = time.perf_counter()
                    self._worker_rtt(worker_index).observe(t_reply - t_sent)
                    if self._trace is not None:
                        self._trace.complete_perf(
                            "worker_rtt", "worker", t_sent, t_reply,
                            tid=self._worker_tid(worker_index),
                            epoch=epoch, worker=worker_index,
                            shards=len(shard_ids),
                        )
                for shard_id, effect_rows, aoe_records in results:
                    out[shard_id] = (effect_rows, aoe_records)
                del pending[worker_index]

        stats.bytes_broadcast += tick_bytes
        stats.ticks += 1
        stats.last_tick_bytes = tick_bytes
        return out

    def invalidate(self) -> None:
        """Forget what every worker holds: each is snapshot-fed next tick."""
        for worker in self.workers:
            worker.epoch = NO_REPLICA

    # -- fault-injection hooks ------------------------------------------------------

    def debug_set_worker_epoch(self, worker_index: int, epoch: int) -> int:
        """Fault injection: force a worker's *actual* replica epoch.

        The coordinator's belief (``workers[i].epoch``) is left alone,
        so the next delta broadcast reaches a genuinely drifted worker
        -- the STALE/snapshot fallback path a chaos drill wants to see.
        """
        worker = self.workers[worker_index]
        worker.transport.send((MSG_SET_EPOCH, epoch))
        # reprolint: disable=recv-frame-guard -- debug-only fault-injection
        # helper; a torn frame aborting the chaos drill is the right outcome
        reply = worker.transport.recv()
        if reply[0] != REPLY_EPOCH:  # pragma: no cover - protocol bug
            raise RuntimeError(f"unexpected reply {reply[0]!r}")
        return reply[1]

    def debug_drop_worker(self, worker_index: int) -> None:
        """Fault injection: make a worker vanish without replying.

        The worker closes its side and exits immediately; the
        coordinator discovers the death on its next exchange and takes
        the respawn + snapshot path.
        """
        worker = self.workers[worker_index]
        try:
            worker.transport.send((MSG_DROP,))
        except (BrokenPipeError, OSError):  # pragma: no cover - already dead
            pass

    def close(self) -> None:
        for worker in self.workers:
            try:
                worker.transport.send((MSG_STOP,))
            except (BrokenPipeError, OSError):
                pass
        for worker in self.workers:
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - stuck
                worker.process.terminate()
                worker.process.join(timeout=5)
            worker.transport.close()
