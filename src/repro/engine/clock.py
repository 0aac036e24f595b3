"""The discrete simulation engine: the tick loop of Sections 2.2 and 6.

Each clock tick runs an explicit staged pipeline over a *sharded*
environment (the partition of ``E`` by a configurable shard key --
``repro.env.sharding``).  Shards split the decision work only: which
units' scripts run together, and on which worker.  Every index is built
over the flat ``E``, as in the paper.  The shard layout is fixed when the
engine is constructed: only the engine and its decision workers (which
receive it in the payload that opens their session) know it; no replica
update or log record carries it.

0. **partition** -- ``E``'s rows split into per-shard lists in the flat
   table's row order: the units each shard decides;
1. **index build** -- the indexed evaluator arms itself for this
   tick's environment: it drops last tick's indexes and lazily, on
   first probe, rebuilds each aggregate index over all of ``E``, as the
   paper does; process workers and spectator replicas do the same;
2. **decision** -- the units of each shard execute their scripts
   set-at-a-time, one batch per script (each aggregate call site probes
   the indexes once per batch, min/max sites as one Figure-9 sweep);
   per-shard effect rows (and deferred AoE records) accumulate.  Stages
   1 and 2 are one :class:`~repro.engine.decision.DecisionStage` over
   the engine's :class:`~repro.engine.decision.GameDefinition`.  Shards
   are independent -- scripts read the tick-start snapshot and write
   fresh effect rows -- so with ``parallelism="processes"`` this stage
   fans out across worker processes (``repro.engine.shardexec``), each
   running the same stage object over the game it received when the
   pool started;
3. **second index build + action** -- deferred area effects gathered
   from all shards resolve through the ⊕ optimisation of Section 5.4,
   once per tick over the flat ``E`` (this is the paper's "second index
   building phase, which can depend on values generated during the
   decision phase");
4. **⊕-merge** -- the flat environment, every shard's effect table and
   the area-effect table merge under ⊕ (Eq. 6).  ⊕ is associative and
   commutative (Eq. 3), so shard-local effect tables can be combined in
   any order; the engine always merges in ascending shard id, the
   deterministic tie-break that keeps trajectories bit-identical run to
   run *and* across shard counts and worker layouts (see below).  ⊕
   groups on ``K`` when the registry guarantees every effect row is a
   copy of ``E``'s row for its key (no native action, no action writing
   a const attribute), on all the const attributes otherwise; either
   way each combined row is a fresh copy;
5. **mechanics** -- the game's post-processing applies the combined
   effects (Example 4.1), moves units, removes the dead.  It owns ⊕'s
   rows and updates them in place;
6. **feed** (optional) -- the post-tick state becomes one
   :class:`~repro.env.sharding.EpochUpdate` (epoch, rows and the row
   delta against the tick-start state) handed to every attached
   consumer: the
   spectator publisher (``repro.serve``) and the epoch log
   (``repro.persist``) now, the process workers at the start of the
   next tick.  Each sends the delta to holders it chains for and the
   snapshot to the rest, and each blob is pickled at most once.

**Determinism.**  Sharded and worker-process runs are bit-identical to the
single-shard serial engine because nothing in a tick depends on
cross-shard evaluation order: the random function is counter-mode (a
pure function of seed, tick, unit key, draw index), every probe reads
the same flat indexes whichever shard asks, ⊕'s aggregates are
associative/commutative, and the combined table inherits its row order
from the flat ``E`` (⊕ groups are seeded by the environment rows, which
every effect row references).  Process workers rebuild the same
indexes from the same rows as the serial engine, so at the same shard
count their trajectories are bit-identical, float sums included.  The
one caveat is across shard counts: effect values that *sum inexactly in
floating point* may differ in final ulps when their contributions
arrive from different shards, since float addition is not associative.
All of the battle simulation's summed measures are integer-valued, so
its trajectories are exact.

The evaluator is pluggable (Section 6): ``mode="naive"`` scans E for
every aggregate, ``mode="indexed"`` probes the Section 5.3 structures.
Both produce identical trajectories; only the wall-clock differs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..algebra.shapes import ActionShape, classify_action
from ..env.combine import combine_all
from ..env.sharding import (
    EpochUpdate,
    encode_replica_delta,
    make_sharder,
    partition_rows,
)
from ..env.table import EnvironmentTable, diff_by_key
from ..obs import (
    GcMonitor,
    NULL_REGISTRY,
    MetricsRegistry,
    SlowTickWatchdog,
    TraceRecorder,
)
from .decision import DecisionStage, GameDefinition
from .effects import AoeRecord, resolve_aoe
from .rng import TickRandom

#: Game mechanics hook: (combined environment, rng, tick) -> next environment.
#: The combined rows are ⊕'s fresh copies, never ``E``'s own: mechanics
#: owns them and may mutate them in place, which leaves the tick-start
#: rows intact for the change capture.
MechanicsFn = Callable[[EnvironmentTable, TickRandom, int], EnvironmentTable]

#: Canonical stage names, in pipeline order, each with the
#: :class:`TickStats` field that carries its seconds -- the label
#: vocabulary the ``stage_seconds`` histograms, trace spans, and watchdog
#: breakdowns all share.  ("capture" time is folded into "maintenance",
#: matching ``TickStats.maintenance_time``, but traced as its own span.)
_STAGES = {
    "partition": "partition_time",
    "maintenance": "maintenance_time",
    "decision": "decision_time",
    "aoe": "aoe_time",
    "combine": "combine_time",
    "mechanics": "mechanics_time",
    "publish": "publish_time",
    "log_append": "log_time",
}


@dataclass
class TickStats:
    """Wall-clock breakdown of one tick (seconds) plus row counts."""

    tick: int
    units: int
    effect_rows: int
    aoe_records: int
    decision_time: float
    aoe_time: float
    combine_time: float
    mechanics_time: float
    total_time: float
    #: Index upkeep: evaluator begin_tick (dropping last tick's
    #: indexes) plus the post-mechanics change capture the replica
    #: feeds need.  0.0 in naive mode with nothing attached.
    maintenance_time: float = 0.0
    #: Pickled bytes shipped to process workers this tick (deltas and/or
    #: snapshots); 0 outside ``parallelism="processes"``.
    broadcast_bytes: int = 0
    #: Bytes streamed to spectator subscribers by the publish stage;
    #: 0 when no publisher is attached (or nobody is subscribed).
    publish_bytes: int = 0
    #: Bytes appended to the durable epoch log this tick (encoded in
    #: the tick loop, written by the log's background thread); 0 when
    #: no log is attached.
    log_bytes: int = 0
    #: Stage-0 shard partition of ``E`` (seconds).
    partition_time: float = 0.0
    #: Publish stage: streaming the post-tick state to spectator
    #: subscribers; 0.0 when no publisher is attached.
    publish_time: float = 0.0
    #: Epoch-log append: record encoding plus the queue hand-off (the
    #: disk write runs on the log's background thread); 0.0 when no log
    #: is attached.
    log_time: float = 0.0


@dataclass(frozen=True)
class EngineConfig:
    """Every engine knob: its name, its default and what it does.

    This is the one declaration of the knob list.  A config is frozen:
    every knob is a construction-time fact of the engine built from it,
    so assigning to a field raises ``FrozenInstanceError``.
    :class:`~repro.game.battle.BattleSimulation`,
    :meth:`~repro.api.GameDefinition.engine` and
    :func:`~repro.api.run_battle` forward the keywords they do not
    consume themselves to this constructor, so an unknown keyword is a
    ``TypeError`` naming it (a bad value is a ``ValueError`` from
    :class:`SimulationEngine`).
    Worker layouts and diagnostics produce bit-identical trajectories
    at the same ``num_shards``, float sums included.  The evaluation
    mode and the shard count do too whenever effect/measure sums are
    exact in floating point -- true for integer-valued measures like
    the battle simulation's (see the module docstring for why).

    Evaluation (Section 6):

    * ``mode`` -- ``"indexed"`` probes the Section 5.3 structures and
      defers area effects to the ⊕ optimisation of Section 5.4,
      ``"naive"`` scans ``E`` for every aggregate and action;
    * ``seed`` -- seed of the counter-mode random function.

    Index maintenance is not a knob: the indexed evaluator rebuilds
    every index it probes each tick (see ``repro.engine.evaluator``).

    Sharding:

    * ``num_shards`` -- how many partitions of ``E`` the decision stage
      runs (1 = the flat engine): which units' decisions run together,
      and on which worker.  Indexes always span all of ``E``.  The
      layout is fixed for the engine's lifetime;
    * ``shard_by`` -- the shard key: ``None`` (default) is the schema's
      key attribute, ``"spatial"`` cuts ``num_shards`` vertical strips
      over ``posx`` (the engine divides the largest ``posx`` of the rows
      it is built with; a unit beyond it joins the top strip), and any
      other const attribute name (``"player"``, ...) is hashed
      process-stably.

    Decision workers:

    * ``parallelism`` -- ``"serial"`` runs shards one after another in
      this process; ``"processes"`` runs shard decisions in long-lived
      worker processes holding replicas of ``E`` (see
      ``repro.engine.shardexec``; takes effect from two shards up).
      The workers receive the engine's game when the pool starts;
    * ``max_workers`` -- pool size (default: ``num_shards``).  Every
      worker is a process on this host, one
      :class:`~repro.serve.transport.SocketTransport` session on a
      private socketpair, framed by the transport's default guard.  A
      dead worker is respawned and its fresh session snapshot-fed --
      fault recovery degrades to re-broadcast, never to wrong answers.

    Spectator serving (the ``repro.serve`` read-replica layer):

    * ``spectators`` -- when true, the engine opens a
      :class:`~repro.serve.publisher.ReplicaPublisher` on an ephemeral
      loopback port (:meth:`SimulationEngine.serve_spectators` takes
      another address) and runs a **publish stage** after mechanics
      each tick, streaming the post-tick state (epoch
      ``tick_count + 1``) to every subscribed
      :class:`~repro.serve.spectator.SpectatorReplica` -- the same
      epoch-versioned change set the worker protocol uses, with
      snapshot catch-up for late joiners and fault paths.  Spectators
      are read-only, and the publish stage never blocks on (and is
      never wedged by) a slow or dead subscriber.

    Durable epoch log (the ``repro.persist`` layer):

    * ``epoch_log`` -- a file path: the engine appends every post-tick
      state to a :class:`~repro.persist.log.EpochLogWriter` as the
      publish stage runs (the captured delta when it chains, a
      full-snapshot checkpoint otherwise), enabling mid-battle
      save/resume, crash recovery by replay, and deterministic
      historical replay.  Disk writes run on a background thread, so
      the tick loop never blocks on the log;
    * ``epoch_log_checkpoint_every`` -- full-snapshot checkpoint
      cadence in epochs (bounds recovery replay work and log seek
      distance);
    * ``epoch_log_fsync`` -- durability policy: ``"never"`` (close
      only), ``"checkpoint"`` (default), or ``"always"`` (every
      record -- what a crash drill wants).

    Observability (the ``repro.obs`` layer; reads the wall-clock
    diagnostics the engine already measures, never simulation state):

    * ``metrics`` -- when true, the engine creates a process-local
      :class:`~repro.obs.registry.MetricsRegistry` and every layer --
      tick loop, worker pool, spectator publisher, epoch-log writer,
      evaluator -- records its counters/gauges/histograms there (see
      ``docs/observability.md`` for the full name catalogue);
      :meth:`SimulationEngine.serve_metrics` exposes the registry as a
      Prometheus ``/metrics`` endpoint.  Disabled metrics cost one
      no-op method call per instrument site;
    * ``trace_path`` -- when set, the engine writes an epoch-correlated
      Chrome trace-event file (Perfetto / ``about:tracing`` loadable)
      with a span for every tick stage, worker round trip, publisher
      send, and epoch-log encode/write/fsync, plus instant events for
      faults (respawns, STALE re-feeds, subscriber drops)
      and watchdog flags;
    * ``slow_tick_factor`` -- when set (must be > 1), a slow-tick
      watchdog flags any tick whose total exceeds ``factor`` times the
      EWMA of recent tick totals, logging the offending stage breakdown
      at WARNING.  Independent of ``metrics``.
    """

    mode: str = "indexed"
    seed: int = 0
    num_shards: int = 1
    shard_by: str | None = None
    parallelism: str = "serial"
    max_workers: int | None = None
    spectators: bool = False
    epoch_log: str | None = None
    epoch_log_checkpoint_every: int = 64
    epoch_log_fsync: str = "checkpoint"
    metrics: bool = False
    trace_path: str | None = None
    slow_tick_factor: float | None = None


class SimulationEngine:
    """Drives the environment through clock ticks.

    *game* is the :class:`~repro.engine.decision.GameDefinition` whose
    scripts decide (a unit runs ``game.scripts[row[game
    .script_selector]]``); *mechanics* is the game's post-processing
    step.  Decision workers (``parallelism="processes"``) and spectator
    replicas receive *game* when they start -- the first processes tick
    starts the pool -- so a mod edits ``game.scripts`` before the first
    tick, and every layout then runs it.

    Engines that use worker processes (``parallelism="processes"``)
    should be :meth:`close`\\ d when done -- or used as a context
    manager -- to shut the pool down promptly.
    """

    def __init__(
        self,
        env: EnvironmentTable,
        game: GameDefinition,
        mechanics: MechanicsFn,
        config: EngineConfig | None = None,
    ):
        self.env = env
        self.game = game
        self.registry = game.registry
        self.mechanics = mechanics
        self.config = config or EngineConfig()
        cfg = self.config
        if cfg.mode not in ("indexed", "naive"):
            raise ValueError(f"unknown engine mode {cfg.mode!r}")
        if cfg.parallelism not in ("serial", "processes"):
            raise ValueError(f"unknown parallelism {cfg.parallelism!r}")
        if cfg.max_workers is not None and cfg.max_workers < 1:
            raise ValueError(
                f"max_workers must be None or >= 1, got {cfg.max_workers!r}"
            )
        self.indexed = cfg.mode == "indexed"
        self.rng = TickRandom(cfg.seed, key_attr=env.schema.key)
        self.tick_count = 0
        # the shard layout: fixed here, shipped to the workers in their
        # session payload, never on the replica feeds
        shard_by = env.schema.key if cfg.shard_by is None else cfg.shard_by
        if shard_by != "spatial" and shard_by not in env.schema:
            raise ValueError(
                f"shard_by {shard_by!r} is neither 'spatial' nor an "
                f"attribute of the schema"
            )
        # spatial strips divide the x range of the starting rows (the
        # top strip takes whatever lies beyond it); make_sharder refuses
        # a missing or non-positive extent
        extent = None
        if shard_by == "spatial" and "posx" in env.schema:
            extent = max((row["posx"] for row in env.rows), default=None)
        self._shard_conf = (shard_by, cfg.num_shards, extent)
        self.shard_of = make_sharder(shard_by, cfg.num_shards, extent=extent)
        self._processes = cfg.parallelism == "processes" and cfg.num_shards > 1
        self._pool = None  # ReplicaWorkerPool | None

        # observability: instruments are resolved once, here, so the
        # tick loop mutates pre-bound cells (no-op cells when metrics
        # are off -- the disabled cost is the method call itself).
        self.metrics = MetricsRegistry() if cfg.metrics else NULL_REGISTRY
        self.trace = TraceRecorder(cfg.trace_path) if cfg.trace_path else None
        self.watchdog = (
            SlowTickWatchdog(cfg.slow_tick_factor)  # validates factor > 1
            if cfg.slow_tick_factor is not None
            else None
        )
        self._prom_server = None
        m = self.metrics
        self._m_ticks = m.counter("ticks_total")
        self._m_epoch = m.gauge("epoch")
        self._m_units = m.gauge("units")
        self._m_effect_rows = m.counter("effect_rows_total")
        self._m_aoe_records = m.counter("aoe_records_total")
        self._m_tick_seconds = m.histogram("tick_seconds")
        self._m_stage = {
            stage: m.histogram("stage_seconds", stage=stage)
            for stage in _STAGES
        }
        self._m_broadcast_bytes = m.counter("broadcast_bytes_total")
        self._m_publish_bytes = m.counter("publish_bytes_total")
        self._m_log_bytes = m.counter("log_bytes_total")
        self._m_slow_ticks = m.counter("watchdog_slow_ticks_total")

        # the decision stage the workers run too; its evaluator is the
        # serial engine's, whose stats the ledger reads
        self.decision = DecisionStage(game, self.rng, mode=cfg.mode)
        self.agg_eval = self.decision.agg_eval
        if self.indexed and self.metrics.enabled:
            self.agg_eval.bind_metrics(self.metrics)

        # change capture: the diff taken at the end of tick t, encoded
        # as an epoch-stamped ReplicaDelta inside the current
        # EpochUpdate, feeds the spectator publisher and the epoch log
        # at t, the process workers at t+1.
        self._update = EpochUpdate(1, env.rows)
        self.publisher = None  # ReplicaPublisher | None
        self.epoch_log = None  # EpochLogWriter | None
        self._epoch_log_state_fn: Callable[[], dict | None] = lambda: None
        if cfg.spectators:
            self.serve_spectators()
        if cfg.epoch_log:
            self.attach_epoch_log(cfg.epoch_log)

        self._action_shapes: dict[str, ActionShape] = {
            name: classify_action(fn.spec)
            for name, fn in self.registry.actions.items()
            if fn.spec is not None
        }
        # ⊕ may group on K when every effect row is E's row for its key
        # with only effect attributes written.  Spec actions emit such
        # copies on every path (key action, scan, deferred AoE), unless
        # they write a const; a native action (no spec) may emit any row.
        consts = set(env.schema.const_names)
        self._combine_by_key = all(
            fn.spec is not None and consts.isdisjoint(fn.spec.effects)
            for fn in self.registry.actions.values()
        )
        # Last, so no later failure in this constructor can strand the
        # process-wide gc hook; close() removes it.
        self._gc_monitor = GcMonitor(m) if m.enabled else None

    # -- worker pool lifecycle ----------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            from .shardexec import ReplicaWorkerPool

            cfg = self.config
            payload = {
                "mode": cfg.mode,
                "seed": cfg.seed,
                "shard_conf": self._shard_conf,
            }
            self._pool = ReplicaWorkerPool(
                self.game,
                payload,
                min(cfg.max_workers or cfg.num_shards, cfg.num_shards),
                metrics=self.metrics,
                trace=self.trace,
            )
        return self._pool

    @property
    def worker_stats(self):
        """The process pool's broadcast/fault counters
        (:class:`~repro.engine.shardexec.PoolStats`), or ``None`` before
        the pool exists / outside processes mode."""
        return getattr(self._pool, "stats", None)

    def close(self) -> None:
        """Shut down the publisher, the epoch log, then the worker pool.

        Publisher first: closing the feed while worker processes are
        still alive gives every subscribed spectator a clean EOF on a
        quiescent socket, instead of racing worker teardown and
        surfacing as spurious ``ConnectionResetError``/``EOFError``
        noise on half-closed peers.  Idempotent -- safe to call any
        number of times (context managers and explicit ``close()``
        calls may both run).
        """
        if self.publisher is not None:
            self.publisher.close()
            self.publisher = None
        if self.epoch_log is not None:
            self.epoch_log.close()
            self.epoch_log = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._prom_server is not None:
            self._prom_server.shutdown()
            self._prom_server = None
        if self._gc_monitor is not None:
            self._gc_monitor.close()
        # trace last: the publisher and epoch log emit their final spans
        # while draining above.  The recorder drops events after close,
        # so a second close() (or a late emit) is harmless.
        if self.trace is not None:
            self.trace.close()

    # -- spectator serving --------------------------------------------------------

    def serve_spectators(self, *, host: str = "127.0.0.1", port: int = 0):
        """Open the spectator feed; returns the attached publisher.

        Called automatically, on an ephemeral loopback port, when
        ``config.spectators`` is set; call it yourself to choose the
        address (off-host subscribers), or on a running engine to start
        serving mid-battle.  From here on every tick's
        :class:`~repro.env.sharding.EpochUpdate` carries a replica
        delta, even in serial mode.
        """
        from ..serve.publisher import ReplicaPublisher

        if self.publisher is not None:
            raise RuntimeError("engine is already serving spectators")
        self.publisher = ReplicaPublisher(
            host=host,
            port=port,
            metrics=self.metrics,
            trace=self.trace,
        )
        return self.publisher

    @property
    def spectator_address(self) -> tuple[str, int] | None:
        """The publisher's ``(host, port)``, or ``None`` when not serving."""
        return None if self.publisher is None else self.publisher.address

    # -- live metrics exposition --------------------------------------------------

    def serve_metrics(
        self, *, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Expose the metrics registry at ``http://host:port/metrics``
        (Prometheus text exposition, port 0 = ephemeral); returns the
        bound ``(host, port)``.  Requires ``EngineConfig(metrics=True)``;
        the daemon-thread server is shut down by :meth:`close`.
        """
        if not self.metrics.enabled:
            raise RuntimeError(
                "metrics are disabled; construct the engine with "
                "EngineConfig(metrics=True) to serve them"
            )
        if self._prom_server is not None:
            raise RuntimeError("engine is already serving metrics")
        from ..obs import serve_prometheus

        self._prom_server, address = serve_prometheus(
            self.metrics, host=host, port=port
        )
        return address

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """The ``/metrics`` endpoint's ``(host, port)``, or ``None``."""
        return (
            None
            if self._prom_server is None
            else self._prom_server.server_address
        )

    def publish_spectators(self) -> int:
        """Run the publish stage between ticks; returns bytes shipped.

        Publishes the current epoch's update again, so a late joiner
        snapshot-catches-up without waiting for (or advancing) the next
        tick; subscribers already at the current epoch are not re-fed.
        """
        if self.publisher is None:
            raise RuntimeError(
                "no spectator publisher attached; call serve_spectators() "
                "or set EngineConfig.spectators"
            )
        return self.publisher.publish(self._update)

    def __enter__(self) -> "SimulationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- durable epoch log --------------------------------------------------------

    def attach_epoch_log(
        self,
        path: str,
        *,
        resume: bool = False,
        state_fn: Callable[[], dict] | None = None,
        meta: dict | None = None,
    ):
        """Start logging every post-tick state to *path*; returns the writer.

        Called automatically when ``config.epoch_log`` is set; games
        that carry state of their own (``BattleSimulation``) call it
        directly to supply *state_fn* (a callable returning a small
        picklable dict, logged alongside every epoch so recovery
        restores game counters exactly) and *meta* (recorded once, so a
        log is self-contained for :meth:`restore_state`-based
        recovery).

        With *resume* the writer appends to an existing log -- the
        crash-recovery path, after :func:`~repro.persist.log
        .truncate_torn_tail` -- instead of starting a fresh file.
        Either way the current state is immediately appended as a full
        checkpoint, so the log always chains from a durable base.
        """
        from ..persist.log import EpochLogWriter

        if self.epoch_log is not None:
            raise RuntimeError("engine already has an epoch log attached")
        cfg = self.config
        self.epoch_log = EpochLogWriter(
            path,
            checkpoint_every=cfg.epoch_log_checkpoint_every,
            fsync=cfg.epoch_log_fsync,
            resume=resume,
            metrics=self.metrics,
            trace=self.trace,
        )
        self._epoch_log_state_fn = state_fn or (lambda: None)
        if not resume:
            self.epoch_log.append_meta(
                {
                    "key_attr": self.env.schema.key,
                    "seed": cfg.seed,
                    "game_meta": meta,
                }
            )
        # a fresh writer chains from nothing: this record is a checkpoint
        self.epoch_log.append_epoch(
            self._update, state=self._epoch_log_state_fn()
        )
        return self.epoch_log

    def restore_state(self, epoch: int, rows: list) -> None:
        """Adopt *rows* as the authoritative state at *epoch*.

        The resume/recovery boot path: installs the restored environment
        (taking ownership of *rows*), rewinds the tick counter so the
        next tick is number *epoch* (post-tick states are epoch
        ``tick_count + 1``), and drops everything derived from the
        previous timeline: every attached consumer's belief of what its
        holders hold -- worker replicas and spectator subscribers are
        snapshot-fed by their next update, and the epoch log's next
        record is a checkpoint.  A holder may hold the restored epoch number from the
        old timeline, so the epoch alone cannot tell it is stale.
        Nothing else needs restoring: the counter-mode rng is a pure
        function of (seed, tick, unit key), so state + tick number
        fully determine the future trajectory.
        """
        if epoch < 1:
            raise ValueError(f"epoch must be >= 1, got {epoch}")
        env = EnvironmentTable(self.env.schema)
        env.rows.extend(rows)
        self.env = env
        self.tick_count = epoch - 1
        self._update = EpochUpdate(epoch, env.rows)
        for consumer in (self._pool, self.publisher, self.epoch_log):
            if consumer is not None:
                consumer.invalidate()

    # -- pipeline stages ------------------------------------------------------------

    def _decide_processes(
        self,
    ) -> list[tuple[list[dict[str, object]], list[AoeRecord]]]:
        """Stage 2 in worker processes: update replicas, gather effects.

        Each worker holds a full replica of ``E`` at some acked epoch;
        the pool is handed the tick-start state's update -- the one the
        publisher and the epoch log got at the end of the previous tick
        -- and ships its delta to every worker it chains for, the
        snapshot to the rest.  Shards are bundled round-robin, one group
        per worker; results are re-ordered by shard id for the
        deterministic ⊕-merge.
        """
        pool = self._ensure_pool()
        num_shards = self.config.num_shards
        workers = min(pool.num_workers, num_shards)
        bundles = [
            (w, list(range(w, num_shards, workers))) for w in range(workers)
        ]
        by_shard = pool.run_tick(self.tick_count, bundles, self._update)
        return [by_shard[shard_id] for shard_id in range(num_shards)]

    # -- the tick loop --------------------------------------------------------------

    def tick(self) -> TickStats:
        start = time.perf_counter()
        self.tick_count += 1
        epoch = self.tick_count + 1  # post-tick states are epoch t+1
        trace = self.trace
        self.rng.advance(self.tick_count)
        cfg = self.config
        env = self.env
        schema = env.schema
        seconds = dict.fromkeys(_STAGES, 0.0)

        def timed(
            stage: str, t0: float, span: str | None = None, **args: object
        ) -> None:
            """Charge the time since *t0* to *stage*; trace it as *span*."""
            t1 = time.perf_counter()
            seconds[stage] += t1 - t0
            if trace is not None:
                trace.complete_perf(
                    span or stage, "tick", t0, t1, epoch=epoch, **args
                )

        # stage 0: partition E's rows by the shard key
        t0 = time.perf_counter()
        parts = partition_rows(env.rows, cfg.num_shards, self.shard_of)
        timed("partition", t0)

        # stage 1: re-arm the evaluator; its indexes rebuild on first
        # probe.  (Process workers arm their own, in the decision stage
        # they run.)
        by_key = None
        if self.indexed and not self._processes:
            t0 = time.perf_counter()
            by_key = self.decision.begin_tick(env)
            timed("maintenance", t0)

        # stage 2: decision, shard at a time, one batch per script
        t0 = time.perf_counter()
        broadcast_bytes = 0
        if self._processes:
            shard_results = self._decide_processes()
            broadcast_bytes = self._pool.stats.last_tick_bytes
        else:
            shard_results = self.decision.decide(env, parts, by_key)
        timed("decision", t0, shards=len(parts))

        # stage 3: second index build -- resolve the deferred area
        # effects gathered from every shard, once, over the flat E
        t0 = time.perf_counter()
        all_aoe: list[AoeRecord] = [
            record for _, records in shard_results for record in records
        ]
        aoe_rows = (
            resolve_aoe(
                all_aoe,
                env.rows,
                schema,
                self._action_shapes,
                self.registry.constants,
            )
            if all_aoe
            else []
        )
        timed("aoe", t0, records=len(all_aoe))

        # stage 4: ⊕-merge (Eq. 6: main⊕(E) ⊕ E).  Deterministic merge
        # order: E first (seeding the row order), then every shard's
        # decision effects in ascending shard id, then the AoE effects.
        # ⊕ is associative/commutative, so this fixed order is a
        # tie-break, not a semantic choice.  Its rows are fresh copies,
        # handed to mechanics to own.
        t0 = time.perf_counter()
        effect_row_count = 0
        tables = [env]
        for rows in [rows for rows, _ in shard_results] + [aoe_rows]:
            effect_row_count += len(rows)
            table = EnvironmentTable(schema)
            table.rows.extend(rows)
            tables.append(table)
        combined = combine_all(tables, schema, by_key=self._combine_by_key)
        timed("combine", t0, effect_rows=effect_row_count)

        # stage 5: game mechanics (post-processing + movement)
        t0 = time.perf_counter()
        self.env = self.mechanics(combined, self.rng, self.tick_count)
        timed("mechanics", t0)

        # change capture, only when a replica feed is attached: diff the
        # post-mechanics environment against the tick-start snapshot
        # (⊕ copies rows and mechanics owns the copies, so *env* still
        # holds the pre-tick values), encoded as an epoch-stamped
        # ReplicaDelta in this epoch's update
        rd = None
        if (
            self._processes
            or self.publisher is not None
            or self.epoch_log is not None
        ):
            t0 = time.perf_counter()
            delta = diff_by_key(env, self.env)
            # an unusable diff (duplicate keys) leaves the update without
            # a delta: every feed sends the snapshot
            if delta is not None:
                key = schema.key
                rd = encode_replica_delta(
                    delta,
                    old_order=[row[key] for row in env.rows],
                    new_order=[row[key] for row in self.env.rows],
                    key_attr=key,
                    base_epoch=self.tick_count,
                    epoch=epoch,
                )
            timed("maintenance", t0, span="capture")
        update = self._update = EpochUpdate(epoch, self.env.rows, rd)

        # stage 6: feed -- hand this epoch's update to the spectator
        # publisher (fire and forget: spectators are read-only and can
        # never stall or corrupt the tick loop) and to the durable epoch
        # log (encoded here -- rows are never mutated after a tick, so
        # the background disk write needs no copy -- and the tick loop
        # never waits on the disk).  The workers get it next tick.
        publish_bytes = 0
        if self.publisher is not None:
            t0 = time.perf_counter()
            publish_bytes = self.publisher.publish(update)
            timed("publish", t0, bytes=publish_bytes)
        log_bytes = 0
        if self.epoch_log is not None:
            t0 = time.perf_counter()
            log_bytes = self.epoch_log.append_epoch(
                update, state=self._epoch_log_state_fn()
            )
            timed("log_append", t0, bytes=log_bytes)

        stats = TickStats(
            tick=self.tick_count,
            units=len(env),
            effect_rows=effect_row_count,
            aoe_records=len(all_aoe),
            total_time=time.perf_counter() - start,
            broadcast_bytes=broadcast_bytes,
            publish_bytes=publish_bytes,
            log_bytes=log_bytes,
            **{field: seconds[stage] for stage, field in _STAGES.items()},
        )
        if trace is not None:
            trace.complete_perf(
                "tick", "tick", start, start + stats.total_time,
                epoch=epoch, tick=self.tick_count, units=stats.units,
                effect_rows=stats.effect_rows,
            )
        gc_seconds = None
        if self._gc_monitor is not None:
            self._observe_tick(stats, seconds)
            gc_seconds = self._gc_monitor.end_tick()
        if self.watchdog is not None and self.watchdog.observe(
            self.tick_count, stats.total_time, seconds, gc_seconds=gc_seconds
        ):
            self._m_slow_ticks.inc()
            if trace is not None:
                trace.instant(
                    "slow_tick", "watchdog", epoch=epoch,
                    total_ms=round(stats.total_time * 1e3, 3),
                    ewma_ms=round(self.watchdog.ewma * 1e3, 3),
                )
        return stats

    def _observe_tick(
        self, stats: TickStats, seconds: dict[str, float]
    ) -> None:
        """Record one tick's :class:`TickStats` and its per-stage
        *seconds* into the registry -- the same numbers, so the registry
        is a view, not a second measurement."""
        self._m_ticks.inc()
        self._m_epoch.set(stats.tick + 1)
        self._m_units.set(stats.units)
        self._m_effect_rows.inc(stats.effect_rows)
        self._m_aoe_records.inc(stats.aoe_records)
        self._m_tick_seconds.observe(stats.total_time)
        for stage, spent in seconds.items():
            self._m_stage[stage].observe(spent)
        self._m_broadcast_bytes.inc(stats.broadcast_bytes)
        self._m_publish_bytes.inc(stats.publish_bytes)
        self._m_log_bytes.inc(stats.log_bytes)
        if self.indexed:
            self.agg_eval.index_counters()  # refreshes the index gauges

    def run(self, ticks: int) -> list[TickStats]:
        """Simulate *ticks* clock ticks; returns their stats."""
        return [self.tick() for _ in range(ticks)]
