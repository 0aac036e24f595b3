"""Worker-process side of the sharded tick pipeline: stateful replicas.

``parallelism="processes"`` runs the decision stage of each shard in a
pool of long-lived worker processes.  Workers cannot share the engine's
in-memory state, so the protocol is explicitly message-shaped -- and
since PR 5 it really is distributed: the pool speaks through the
:class:`~repro.serve.transport.Transport` abstraction, so the same
addressed request/reply protocol runs over same-host pipes
(:class:`~repro.serve.transport.PipeTransport`) *or* TCP sockets
(:class:`~repro.serve.transport.SocketTransport`) to remote decision
workers started with ``python -m repro.engine.shardexec --listen
HOST:PORT``.  Unlike the spectator publisher's fire-and-forget feed,
every worker message is addressed and every tick is acknowledged with
the worker's replica epoch, which the coordinator verifies.

Workers are **stateful replica holders** rather than stateless RPC
targets:

* **at session start** each worker builds its own game state --
  registry, compiled scripts, decision runners, and a private
  :class:`~repro.engine.evaluator.IndexedEvaluator` -- from a picklable
  *game factory* (a module-level callable returning a
  :class:`WorkerGame`; remote workers import it by reference, so both
  hosts must run the same code).  Heavy unpicklable objects (compiled
  closures, index structures) never cross the process boundary;
* **per tick** the coordinator ships one *update blob* -- a
  ``SNAPSHOT`` (full row broadcast, stamping a new replica epoch), a
  shard-``SCOPED_SNAPSHOT`` (see the probe split below), or an
  epoch-chained ``DELTA``
  (:class:`~repro.env.sharding.ReplicaDelta`) -- plus the ids of the
  shards the worker decides this tick.  The worker applies the update
  to its retained replica of ``E``, feeds the same delta to its
  evaluator's ``index_maintenance="incremental"`` paths, runs its
  shards' decisions, and returns plain effect rows,
  :class:`~repro.engine.effects.AoeRecord` tuples, and an **epoch ack**
  the coordinator verifies;
* **fault paths** degrade to snapshots, never to wrong answers: a
  worker holding the wrong epoch replies ``STALE`` and is re-sent a
  snapshot in the same tick; a local worker that died is respawned; a
  remote worker whose connection dropped is *reconnected* (the listener
  accepts a fresh session, which always starts replica-less) -- both
  rejoin from a snapshot within the tick; a shard-count change
  invalidates every replica epoch, forcing a full re-broadcast.

**The per-shard probe split** (``worker_scope="shards"``): by default
every worker keeps a full replica of ``E`` (aggregate queries range
over all of ``E`` regardless of who asks), which duplicates both the
broadcast bytes and the index builds once per worker.  Scoped workers
instead hold only *their shards'* rows and per-shard index instances.
A probe that provably touches only owned data -- its range window lies
inside the owned spatial strips, or its nearest candidate is strictly
closer than any unowned strip could be -- is answered locally from the
scoped structures; every other probe (and any action that needs an
unowned row, e.g. a ``FireAt`` across a strip boundary) is *forwarded*
mid-tick to the coordinator over the same transport (``REQ_EVAL``) and
answered there against the full environment through exactly the serial
engine's code paths.  Either way the answer is the flat engine's
answer, so scoped trajectories stay bit-identical while each update
row is shipped to exactly one worker instead of all of them.

Determinism: the per-tick random function is counter-mode
(``TickRandom`` is a pure function of seed, tick, unit key, and draw
index), every evaluator merge tie-breaks on unit keys, and the replica
reproduces the coordinator's flat row order exactly, so worker answers
are bit-identical to the serial engine's no matter how shards are
scheduled, which workers hold which replicas, whether a tick arrived as
a delta or a snapshot, or whether a probe was answered locally or
forwarded.  The transports carry pickles, so remote workers are for
trusted networks only (the frame guard protects liveness, not unpickle
safety).
"""

from __future__ import annotations

import math
import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..env.schema import Schema
from ..env.sharding import (
    NO_REPLICA,
    UPDATE_SCOPED_SNAPSHOT,
    UPDATE_SNAPSHOT,
    ReplicaDelta,
    ReplicaTable,
    StaleReplicaError,
    make_sharder,
)
from ..env.table import EnvironmentTable, TableDelta
from ..obs import NULL_REGISTRY, TID_WORKER_BASE, RegistryStats
from ..serve.transport import (
    DEFAULT_MAX_FRAME,
    PipeTransport,
    SocketTransport,
    Transport,
)
from ..sgl import ast
from ..sgl.analysis import analyze_script
from ..sgl.builtins import FunctionRegistry
from ..sgl.evalterm import EvalContext
from ..sgl.values import Record
from .decision import DecisionRunner, Forward
from .effects import AoeRecord
from .evaluator import IndexedEvaluator, NaiveEvaluator, collect_call_hints
from .rng import TickRandom

#: Message tags, coordinator -> worker.
MSG_INIT = "init"  # first message of a remote session: (factory, payload)
MSG_TICK = "tick"
MSG_STOP = "stop"
MSG_SET_EPOCH = "set_epoch"  # fault-injection hook (tests/chaos drills)
MSG_DROP = "drop"  # fault-injection hook: vanish without replying

#: Reply tags, worker -> coordinator.
REPLY_READY = "ready"
REPLY_OK = "ok"
REPLY_STALE = "stale"
REPLY_ERROR = "error"
REPLY_EPOCH = "epoch"

#: Mid-tick request/reply, worker -> coordinator -> worker: a scoped
#: worker forwarding a probe or action it cannot answer locally.
REQ_EVAL = "eval"
REPLY_EVAL = "eval_ok"
REPLY_EVAL_ERROR = "eval_error"

_INF = float("inf")
_MISS = object()


@dataclass(frozen=True)
class WorkerEndpoint:
    """A remote decision worker's listening address."""

    host: str
    port: int

    @classmethod
    def parse(cls, value: object) -> "WorkerEndpoint":
        """Accept ``"host:port"`` strings, ``(host, port)`` pairs, or an
        existing endpoint."""
        if isinstance(value, WorkerEndpoint):
            return value
        if isinstance(value, str):
            host, sep, port = value.rpartition(":")
            if not sep or not host or not port.isdigit():
                raise ValueError(
                    f"worker endpoint {value!r} is not of the form HOST:PORT"
                )
            return cls(host, int(port))
        try:
            host, port = value  # type: ignore[misc]
        except (TypeError, ValueError):
            raise ValueError(
                f"worker endpoint {value!r} is not of the form HOST:PORT"
            ) from None
        return cls(str(host), int(port))

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)


@dataclass
class WorkerGame:
    """Everything a worker process needs to run decisions.

    Built inside the worker by the game factory, so none of it is ever
    pickled.  *selector* names the row attribute whose value picks the
    unit's script (e.g. ``"unittype"``).
    """

    schema: Schema
    registry: FunctionRegistry
    scripts: dict[str, ast.Script]
    selector: str = "unittype"


#: A picklable, module-level callable producing the worker's game state.
GameFactory = Callable[[], WorkerGame]

#: The shard configuration a replica's index layout depends on;
#: shipped inside every snapshot so workers re-shard when it changes.
ShardConf = tuple  # (shard_by, num_shards, spatial_extent)


# ---------------------------------------------------------------------------
# The scoped (probe-split) evaluation layer
# ---------------------------------------------------------------------------


class ScopedEvaluator(IndexedEvaluator):
    """Index-backed evaluation over a shard-scoped replica of ``E``.

    The replica (and therefore every retained index instance) holds only
    the rows of the worker's owned shards.  A probe is answered locally
    only when it *provably* cannot touch unowned rows:

    * a range-windowed probe whose window on the sharding axis maps --
      through the exact same ``int(x / width)`` arithmetic the spatial
      sharder uses, which is monotone in ``x`` -- entirely into owned
      strips;
    * a nearest-neighbour probe whose best owned candidate is strictly
      closer than the (conservatively shrunk) distance to the nearest
      unowned strip, so no unowned point can beat *or tie* it.

    Everything else -- global aggregates, boundary windows, hashed
    (non-spatial) shard keys, native aggregates -- is forwarded to the
    coordinator, which answers from the full environment through the
    serial engine's own code paths.  Local or forwarded, the answer is
    bit-identical to the flat engine's.

    Forwarded answers for probes that are pure functions of their
    category values and range bounds (residual-free divisible/extreme
    shapes -- e.g. a global per-player count) are memoised per tick, so
    a thousand units asking the same global question cost one round
    trip, not a thousand.
    """

    def __init__(
        self,
        registry: FunctionRegistry,
        *,
        scope: Iterable[int],
        shard_conf: ShardConf,
        remote: Forward,
        x_attr: str = "posx",
        **kwargs,
    ):
        super().__init__(registry, **kwargs)
        self.scope = frozenset(scope)
        shard_by, conf_shards, extent = shard_conf
        self._conf_shards = int(conf_shards)
        self.owns_all = len(self.scope) >= self._conf_shards
        self._strip_width = (
            float(extent) / self._conf_shards
            if shard_by == "spatial" and extent
            else None
        )
        self._x_attr = x_attr
        self._remote = remote
        self._memo: dict[tuple, object] = {}
        # the unowned region, precomputed as merged [lo, hi] x-intervals
        # (scope is fixed for this evaluator's lifetime): the nearest
        # guard consults these per probe instead of rescanning strips
        self._unowned_intervals: list[tuple[float, float]] = []
        if self._strip_width is not None and not self.owns_all:
            width = self._strip_width
            top = self._conf_shards - 1
            run_start: int | None = None
            for s in range(self._conf_shards + 1):
                unowned = s <= top and s not in self.scope
                if unowned and run_start is None:
                    run_start = s
                elif not unowned and run_start is not None:
                    self._unowned_intervals.append(
                        (
                            -_INF if run_start == 0 else run_start * width,
                            _INF if s - 1 == top else s * width,
                        )
                    )
                    run_start = None

    def begin_tick(self, env, hints=(), delta=None) -> None:
        self._memo.clear()  # forwarded answers are valid for one state only
        super().begin_tick(env, hints, delta=delta)

    # -- probe dispatch -----------------------------------------------------------

    def evaluate(self, function, args, ctx):
        if function.native is not None and not self.owns_all:
            # native aggregates scan arbitrary rows; only the
            # coordinator holds them all
            return self._forward(function, args, ctx.unit)
        return super().evaluate(function, args, ctx)

    def _probe(self, function, compiled, args, f):
        if self.owns_all:
            return super()._probe(function, compiled, args, f)
        if compiled.shape.kind == "nearest":
            return self._eval_nearest_scoped(function, compiled, args, f)
        if self._window_is_owned(compiled, f):
            self._bump("scoped_local")
            return super()._probe(function, compiled, args, f)
        return self._forward(function, args, f[0].unit, compiled, f)

    # -- locality proofs ----------------------------------------------------------

    def _window_is_owned(self, compiled, f: list) -> bool:
        """True when every row the probe can select lives in owned shards.

        Requires spatial sharding and a range constraint on the
        sharding axis.  The check maps the window's endpoints through
        the *same* clamp/truncate arithmetic the sharder applies to row
        coordinates; both float division by a positive constant and
        truncation toward zero are monotone, so every coordinate inside
        the window lands on a shard id between the endpoints' ids --
        the containment is exact, no epsilon needed.
        """
        width = self._strip_width
        if width is None:
            return False
        try:
            axis = compiled.shape.range_attrs.index(self._x_attr)
        except ValueError:
            return False  # no window on the sharding axis: may span all
        bounds = compiled.probe.bounds(f)
        if bounds is None:
            return True  # empty selection everywhere: local == global
        xlo, xhi = bounds[axis]
        top = self._conf_shards - 1
        lo = 0 if math.isinf(xlo) else min(max(int(xlo / width), 0), top)
        hi = top if math.isinf(xhi) else min(max(int(xhi / width), 0), top)
        scope = self.scope
        return all(s in scope for s in range(lo, hi + 1))

    def _unowned_guard_sq(self, px: float) -> float:
        """A lower bound on the squared distance from ``px`` (on the
        sharding axis) to any point an *unowned* strip could hold.

        Shrunk by a relative margin so float fuzz at strip boundaries
        (a row whose ``x / width`` rounds across the edge) can only make
        the guard smaller -- a smaller guard forwards more probes, never
        claims a remote candidate impossible when one could exist.
        """
        best = _INF
        for lo, hi in self._unowned_intervals:
            if lo <= px <= hi:
                return 0.0
            d = lo - px if px < lo else px - hi
            if d < best:
                best = d
        if math.isinf(best):
            return _INF  # every shard is owned
        d = best - (abs(px) + best + 1.0) * 1e-9
        return d * d if d > 0.0 else 0.0

    def _eval_nearest_scoped(self, fn, compiled, args, f):
        shape = compiled.shape
        if self._window_is_owned(compiled, f):
            self._bump("scoped_local")
            return self._eval_nearest(fn, compiled, f)
        if self._strip_width is None:
            return self._forward(fn, args, f[0].unit)

        # the sharding axis must be one of the tree's coordinates, or
        # the strip geometry says nothing about candidate distances
        ax, ay = shape.nearest_attrs
        if ax == self._x_attr:
            guard_coord = 0
        elif ay == self._x_attr:
            guard_coord = 1
        else:
            return self._forward(fn, args, f[0].unit)

        # local candidate: the parent's own nearest search (shared
        # helper, so predicates and tie-breaks can never drift) over the
        # owned shards' trees
        found = self._nearest_candidate(fn, compiled, f)
        if found is None:
            return None  # empty range selection matches nothing anywhere
        center, best_row, best = found
        # the owned candidate is the global answer only when nothing in
        # an unowned strip could lie strictly closer -- or tie, since a
        # tying remote row with a smaller key would win the tie-break
        if best_row is not None and best[0] < self._unowned_guard_sq(
            center[guard_coord]
        ):
            self._bump("scoped_local")
            return Record(best_row) if shape.returns_row else best[0]
        return self._forward(fn, args, f[0].unit)

    # -- forwarding ---------------------------------------------------------------

    def _forward(self, function, args, unit, compiled=None, f=None):
        memo_key = None
        if (
            compiled is not None
            and compiled.shape.kind in ("divisible", "extreme")
            and not compiled.shape.residual
        ):
            # the answer is a pure function of (category values, range
            # bounds): safe to share across every unit that asks the
            # same question of the same state
            try:
                eq_vals, neq_vals = compiled.probe.cats(f)
                bounds = compiled.probe.bounds(f)
                memo_key = (
                    function.name,
                    eq_vals,
                    neq_vals,
                    None if bounds is None else tuple(bounds),
                )
                hit = self._memo.get(memo_key, _MISS)
                if hit is not _MISS:
                    self._bump("forward_memo_hits")
                    return hit
            except TypeError:  # unhashable category value: skip the memo
                memo_key = None
        self._bump("forwarded")
        value = self._remote("aggregate", function.name, list(args), unit)
        if memo_key is not None:
            self._memo[memo_key] = value
        return value


# ---------------------------------------------------------------------------
# Worker-side state and session loop
# ---------------------------------------------------------------------------


@dataclass
class _Compiled:
    runner: DecisionRunner
    hints: list


class _WorkerState:
    """Per-process engine fragment: replica, runners, evaluator, rng."""

    def __init__(
        self,
        game: WorkerGame,
        payload: Mapping[str, object],
        remote: Forward | None = None,
    ):
        self.game = game
        self.indexed = payload["mode"] == "indexed"
        self.optimize_aoe = bool(payload["optimize_aoe"])
        self.cascade = bool(payload["cascade"])
        self.scoped = payload.get("worker_scope", "full") == "shards"
        self.remote = remote
        self.rng = TickRandom(int(payload["seed"]), key_attr=game.schema.key)
        self.shard_conf: ShardConf = tuple(payload["shard_conf"])
        self.scope: frozenset[int] | None = None
        self._compiled: dict[str, _Compiled] = {}
        self._reshard(self.shard_conf)
        # the replica of E (row order, key -> row, epoch held) -- the
        # same holder-side protocol object the spectator replicas use;
        # scoped workers hold only their shards' slice of it
        self.replica = ReplicaTable(game.schema.key)

    def _remote_call(
        self, kind: str, name: str, args: list, unit: object
    ) -> object:
        if self.remote is None:  # pragma: no cover - wiring bug
            raise RuntimeError("worker has no coordinator channel to forward to")
        return self.remote(kind, name, args, unit)

    # -- sharding / evaluator lifecycle ----------------------------------------

    def _reshard(
        self, shard_conf: ShardConf, scope: Iterable[int] | None = None
    ) -> None:
        """(Re)build the shard function and a fresh evaluator for it.

        The evaluator's retained per-shard index instances are keyed by
        shard id (and, for scoped workers, built over the scoped
        replica), so a shard-count or scope change invalidates all of
        them; the caller always pairs this with a snapshot.
        """
        shard_by, num_shards, extent = shard_conf
        self.shard_conf = (shard_by, num_shards, extent)
        self.scope = frozenset(scope) if scope is not None else None
        self.shard_of = make_sharder(shard_by, num_shards, extent=extent)
        self._compiled.clear()  # runners may bind scope-specific hooks
        key_attr = self.game.schema.key
        if not self.indexed:
            self.evaluator = NaiveEvaluator()
        elif self.scoped and self.scope is not None:
            self.evaluator = ScopedEvaluator(
                self.game.registry,
                scope=self.scope,
                shard_conf=self.shard_conf,
                remote=self._remote_call,
                cascade=self.cascade,
                key_attr=key_attr,
                maintenance="incremental",
                shard_of=self.shard_of if num_shards > 1 else None,
                num_shards=num_shards,
            )
        else:
            # maintenance="incremental": replica deltas patch the
            # retained per-shard structures; snapshot ticks (delta=None)
            # discard and lazily rebuild, exactly like the parent engine.
            self.evaluator = IndexedEvaluator(
                self.game.registry,
                cascade=self.cascade,
                key_attr=key_attr,
                maintenance="incremental",
                shard_of=self.shard_of if num_shards > 1 else None,
                num_shards=num_shards,
            )

    # -- replica maintenance ----------------------------------------------------

    def apply_snapshot(
        self,
        epoch: int,
        rows: list[dict[str, object]],
        shard_conf: ShardConf,
        scope: Iterable[int] | None = None,
    ) -> None:
        scope = frozenset(scope) if scope is not None else None
        if tuple(shard_conf) != self.shard_conf or scope != self.scope:
            self._reshard(tuple(shard_conf), scope)
        elif self.indexed:
            # same shard layout, but the retained structures describe the
            # replaced replica rows: drop them (they rebuild on probe)
            self.evaluator.reshard(
                self.shard_of if self.shard_conf[1] > 1 else None,
                self.shard_conf[1],
            )
        self.replica.apply_snapshot(epoch, rows)

    def apply_delta(self, rd: ReplicaDelta) -> TableDelta:
        return self.replica.apply_delta(rd)

    # -- script compilation ------------------------------------------------------

    def compiled_for(self, selector_value: object) -> _Compiled:
        entry = self._compiled.get(selector_value)
        if entry is None:
            script = self.game.scripts[selector_value]
            # a scoped worker that does not hold every shard forwards
            # the actions that may need rows outside its scope
            partial = (
                self.scoped
                and self.scope is not None
                and len(self.scope) < self.shard_conf[1]
            )
            runner = DecisionRunner(
                script,
                self.game.registry,
                index_actions=self.indexed,
                defer_aoe=self.indexed and self.optimize_aoe,
                forward=self._remote_call if partial else None,
            )
            analysis = analyze_script(
                script, self.game.registry, self.game.schema
            )
            unit_params = {
                fn.name: fn.params[0] for fn in script.functions.values()
            }
            entry = _Compiled(
                runner=runner,
                hints=collect_call_hints(analysis, unit_params),
            )
            self._compiled[selector_value] = entry
        return entry

    # -- the decision stage ------------------------------------------------------

    def decide(
        self,
        tick: int,
        shard_ids: list[int],
        delta: TableDelta | None,
    ) -> list[tuple[int, list[dict[str, object]], list[AoeRecord]]]:
        """Run the decision stage for the given shards over the replica.

        *delta* is this tick's replica change set (``None`` on snapshot
        ticks); it drives the evaluator's incremental maintenance so
        per-shard index instances survive across ticks.  Results come
        back per shard (tagged with the shard id) so the parent's
        ⊕-merge keeps its ascending-shard-id order.
        """
        game = self.game
        rows = self.replica.rows
        env = EnvironmentTable(game.schema)
        env.rows.extend(rows)
        self.rng.advance(tick)

        # the replica's flat row order induces each shard's row order,
        # exactly as the coordinator's ShardedEnvironment partition does
        wanted = set(shard_ids)
        shard_of = self.shard_of
        selector = game.selector
        shard_groups: dict[int, dict[object, list]] = {
            shard_id: {} for shard_id in shard_ids
        }
        for row in rows:
            shard_id = shard_of(row)
            if shard_id in wanted:
                shard_groups[shard_id].setdefault(row[selector], []).append(
                    row
                )

        by_key = None
        if self.indexed:
            hint_pairs = []
            for units_by_script in shard_groups.values():
                for selector_value, units in units_by_script.items():
                    for hint in self.compiled_for(selector_value).hints:
                        hint_pairs.append((hint, units))
            self.evaluator.begin_tick(env, hint_pairs, delta=delta)
            by_key = (
                self.replica.by_key
                if self.replica.by_key is not None
                else env.by_key()
            )

        rt = EvalContext(
            env=env,
            registry=game.registry,
            agg_eval=self.evaluator,
            rng=self.rng,
        )
        out: list[tuple[int, list[dict[str, object]], list[AoeRecord]]] = []
        for shard_id in shard_ids:
            effect_rows: list[dict[str, object]] = []
            aoe_records: list[AoeRecord] = []
            for selector_value, units in shard_groups[shard_id].items():
                runner = self.compiled_for(selector_value).runner
                for unit in units:
                    runner.run_unit(unit, rt, by_key, effect_rows, aoe_records)
            out.append((shard_id, effect_rows, aoe_records))
        return out


def _make_remote(transport: Transport) -> Forward:
    """The worker side of REQ_EVAL: one synchronous round trip upstream."""

    def remote(kind: str, name: str, args: list, unit: object) -> object:
        transport.send((REQ_EVAL, (kind, name, args, unit)))
        # reprolint: disable=recv-frame-guard -- frame errors deliberately
        # propagate to the worker session loop's EOF/OSError handler,
        # which tears the whole session down
        reply = transport.recv()
        tag = reply[0]
        if tag == REPLY_EVAL:
            return reply[1]
        if tag == REPLY_EVAL_ERROR:
            raise RuntimeError(
                f"coordinator-side evaluation failed:\n{reply[1]}"
            )
        raise RuntimeError(
            f"unexpected reply {tag!r} to a worker evaluation request"
        )

    return remote


def _worker_loop(transport: Transport, state: _WorkerState) -> bool:
    """Serve one coordinator session; True when it ended with STOP."""
    while True:
        try:
            msg = transport.recv()
        except (EOFError, OSError):  # coordinator vanished
            return False
        tag = msg[0]
        if tag == MSG_STOP:
            return True
        if tag == MSG_DROP:  # fault injection: vanish without a word
            return False
        if tag == MSG_SET_EPOCH:  # fault injection: pretend to drift
            state.replica.epoch = msg[1]
            transport.send((REPLY_EPOCH, state.replica.epoch))
            continue
        _, blob, tick, shard_ids = msg
        try:
            update = pickle.loads(blob)
            update_tag = update[0]
            if update_tag == UPDATE_SNAPSHOT:
                _, epoch, rows, shard_conf = update
                state.apply_snapshot(epoch, rows, shard_conf)
                delta = None
            elif update_tag == UPDATE_SCOPED_SNAPSHOT:
                _, epoch, rows, shard_conf, scope = update
                state.apply_snapshot(epoch, rows, shard_conf, scope=scope)
                delta = None
            else:
                delta = state.apply_delta(update[1])
            results = state.decide(tick, shard_ids, delta)
            transport.send((REPLY_OK, state.replica.epoch, results))
        except StaleReplicaError:
            # replica cannot absorb this update; ask for a snapshot.
            # Drop the replica: a failed delta may have half-applied.
            state.replica.invalidate()
            transport.send((REPLY_STALE, state.replica.epoch))
        except BaseException:
            transport.send((REPLY_ERROR, traceback.format_exc()))


def _replica_worker_main(conn, factory: GameFactory, payload: dict) -> None:
    """Entry point of a same-host (pipe) worker process."""
    transport: Transport = PipeTransport(conn)
    try:
        state = _WorkerState(
            factory(), payload, remote=_make_remote(transport)
        )
    except BaseException:  # pragma: no cover - init failures surface on recv
        transport.send((REPLY_ERROR, traceback.format_exc()))
        transport.close()
        return
    try:
        _worker_loop(transport, state)
    except (BrokenPipeError, OSError):  # pragma: no cover - parent raced away
        pass
    transport.close()


# ---------------------------------------------------------------------------
# Remote worker bootstrap: python -m repro.engine.shardexec --listen
# ---------------------------------------------------------------------------


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_frame: int = DEFAULT_MAX_FRAME,
    io_timeout: float | None = None,
    ready_callback: Callable[[tuple[str, int]], None] | None = None,
    max_sessions: int | None = None,
) -> None:
    """Run a remote decision worker: accept coordinator sessions forever.

    Each accepted connection is one coordinator session.  It opens with
    an ``INIT`` message carrying the game factory (pickled by reference;
    the module must be importable here) and the engine payload; the
    worker builds a fresh :class:`_WorkerState`, replies ``READY``, and
    then speaks exactly the pipe workers' protocol.  Sessions are served
    one at a time, and every new session starts replica-less -- so a
    coordinator that reconnects after a drop is always snapshot-fed,
    never served stale state.
    """
    import socket as socket_module

    listener = socket_module.socket(
        socket_module.AF_INET, socket_module.SOCK_STREAM
    )
    listener.setsockopt(
        socket_module.SOL_SOCKET, socket_module.SO_REUSEADDR, 1
    )
    listener.bind((host, port))
    listener.listen(1)
    address = listener.getsockname()[:2]
    if ready_callback is not None:
        ready_callback(address)
    served = 0
    try:
        while max_sessions is None or served < max_sessions:
            try:
                sock, _peer = listener.accept()
            except OSError:  # pragma: no cover - listener closed under us
                break
            served += 1
            transport = SocketTransport(
                sock, max_frame=max_frame, timeout=io_timeout
            )
            try:
                msg = transport.recv()
                if not (isinstance(msg, tuple) and msg and msg[0] == MSG_INIT):
                    transport.send(
                        (REPLY_ERROR, f"expected {MSG_INIT!r}, got {msg!r}")
                    )
                    continue
                _, factory, payload = msg
                try:
                    state = _WorkerState(
                        factory(), payload, remote=_make_remote(transport)
                    )
                except BaseException:
                    transport.send((REPLY_ERROR, traceback.format_exc()))
                    continue
                transport.send((REPLY_READY, address))
                _worker_loop(transport, state)
            except (EOFError, OSError):
                pass  # this session died; serve the next coordinator
            finally:
                transport.close()
    finally:
        listener.close()


def _listen_child(conn, host: str, max_frame: int) -> None:
    """Child-process shim for :func:`spawn_listen_worker`."""

    def ready(address: tuple[str, int]) -> None:
        conn.send(address)
        conn.close()

    serve_worker(host, 0, max_frame=max_frame, ready_callback=ready)


def spawn_listen_worker(
    mp_context=None,
    *,
    host: str = "127.0.0.1",
    max_frame: int = DEFAULT_MAX_FRAME,
    startup_timeout: float = 30.0,
):
    """Start a ``--listen`` worker on an ephemeral loopback port.

    The in-process equivalent of running ``python -m
    repro.engine.shardexec --listen`` on another host; used by tests and
    benchmarks.  Returns ``(process, (host, port))``.
    """
    import multiprocessing

    if mp_context is None:
        methods = multiprocessing.get_all_start_methods()
        mp_context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
    parent_conn, child_conn = mp_context.Pipe()
    process = mp_context.Process(
        target=_listen_child, args=(child_conn, host, max_frame), daemon=True
    )
    process.start()
    child_conn.close()
    if not parent_conn.poll(startup_timeout):
        process.terminate()
        raise RuntimeError("listen worker did not start in time")
    address = parent_conn.recv()
    parent_conn.close()
    return process, tuple(address)


def main(argv=None) -> None:
    """``python -m repro.engine.shardexec --listen HOST:PORT``"""
    import argparse

    parser = argparse.ArgumentParser(
        description="Run a remote decision worker for the sharded engine."
    )
    parser.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="address to accept coordinator sessions on (port 0 = ephemeral)",
    )
    parser.add_argument(
        "--max-frame",
        type=int,
        default=DEFAULT_MAX_FRAME,
        help="frame-size guard in bytes (default: %(default)s); must admit "
        "a full snapshot of the largest environment served",
    )
    parser.add_argument(
        "--io-timeout",
        type=float,
        default=None,
        help="per-recv/send timeout in seconds (default: block forever)",
    )
    args = parser.parse_args(argv)
    endpoint = WorkerEndpoint.parse(args.listen)
    serve_worker(
        endpoint.host,
        endpoint.port,
        max_frame=args.max_frame,
        io_timeout=args.io_timeout,
        ready_callback=lambda address: print(
            f"decision worker listening on {address[0]}:{address[1]}",
            flush=True,
        ),
    )


# ---------------------------------------------------------------------------
# Coordinator side: the addressed worker pool
# ---------------------------------------------------------------------------


@dataclass
class _WorkerHandle:
    transport: Transport
    #: Local workers own a process; remote workers own an endpoint.
    process: object = None
    endpoint: WorkerEndpoint | None = None
    #: Coordinator's belief of the worker's replica epoch.
    epoch: int = NO_REPLICA


class PoolStats(RegistryStats):
    """Broadcast/fault counters a :class:`ReplicaWorkerPool` accumulates.

    Attribute reads and writes behave exactly like the dataclass this
    replaces; when the pool is built with a metrics registry each field
    is a registry cell (the ``worker_*`` series), so the old accessors
    are views over the exported metrics.  ``reconnects`` counts remote
    sessions re-established after a dropped connection; ``remote_evals``
    counts mid-tick probe/action evaluations forwarded by scoped
    workers; ``last_tick_bytes`` is the most recent tick's broadcast
    payload.
    """

    _PREFIX = "worker"
    _COUNTER_FIELDS = (
        "delta_broadcasts",
        "snapshot_broadcasts",
        "stale_snapshots",
        "respawns",
        "reconnects",
        "remote_evals",
        "bytes_broadcast",
        "ticks",
    )
    _GAUGE_FIELDS = {"last_tick_bytes": 0}


@dataclass
class TickUpdate:
    """One tick's update source, handed to :meth:`ReplicaWorkerPool.run_tick`.

    ``delta_blob_for`` / ``snapshot_blob_for`` take the worker's shard
    scope (a frozenset, or ``None`` for full-replica workers) and return
    the pickled update blob -- built and pickled at most once per
    distinct scope per tick by the engine's caching closures.
    ``delta_blob_for`` returns ``None`` when no usable delta exists (a
    rebuild tick, a shard-layout change, ``worker_broadcast="snapshot"``).
    """

    base_epoch: int
    delta_blob_for: Callable[[frozenset | None], bytes | None]
    snapshot_blob_for: Callable[[frozenset | None], bytes]


#: Answers a worker's forwarded REQ_EVAL payload; returns the reply tuple.
EvalService = Callable[[tuple], tuple]


class ReplicaWorkerPool:
    """An addressed pool of stateful replica-holding workers.

    Unlike an executor pool, messages are addressed to *specific*
    workers -- replica state lives in the worker, so the coordinator
    must know (and verify, via epoch acks) what each worker holds.
    Workers are addressed through the :class:`~repro.serve.transport`
    layer: local workers over :class:`PipeTransport`, remote workers
    (``endpoints=...``) over :class:`SocketTransport` sessions to
    ``--listen`` processes on other hosts.  The spectator publisher
    speaks the same update blobs, fire-and-forget, on its own sockets.
    """

    def __init__(
        self,
        factory: GameFactory,
        payload: dict,
        num_workers: int | None = None,
        mp_context=None,
        *,
        endpoints: Iterable[object] | None = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        io_timeout: float | None = None,
        connect_timeout: float = 10.0,
        metrics=None,
        trace=None,
    ):
        self._factory = factory
        self._payload = payload
        self._max_frame = max_frame
        self._io_timeout = io_timeout
        self._connect_timeout = connect_timeout
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._trace = trace
        self.stats = PoolStats(metrics)
        # per-worker instruments / trace tracks, resolved lazily
        self._m_rtt: dict[int, object] = {}
        self._m_bytes: dict[int, object] = {}
        self._named_tids: set[int] = set()
        if endpoints is not None:
            self._endpoints = [WorkerEndpoint.parse(e) for e in endpoints]
            if not self._endpoints:
                raise ValueError("endpoints must name at least one worker")
            self._ctx = None
            self.workers: list[_WorkerHandle] = [
                self._connect(endpoint) for endpoint in self._endpoints
            ]
        else:
            if num_workers is None or num_workers < 1:
                raise ValueError(
                    f"num_workers must be >= 1, got {num_workers}"
                )
            self._endpoints = None
            self._ctx = mp_context
            self.workers = [self._spawn() for _ in range(num_workers)]

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

    @property
    def remote(self) -> bool:
        return self._endpoints is not None

    # -- worker lifecycle ---------------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_replica_worker_main,
            args=(child_conn, self._factory, self._payload),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(
            process=process, transport=PipeTransport(parent_conn)
        )

    def _connect(
        self, endpoint: WorkerEndpoint, *, attempts: int = 10,
        backoff: float = 0.2,
    ) -> _WorkerHandle:
        """Open (or re-open) one remote session: connect, INIT, READY.

        Transport failures retry with backoff -- a worker whose previous
        session just dropped needs a moment to loop back to ``accept``.
        An explicit init *error* from the worker does not retry: the
        game factory fails persistently and retrying cannot help.
        """
        last_error: Exception | None = None
        for _ in range(attempts):
            try:
                transport = SocketTransport.connect(
                    endpoint.address,
                    max_frame=self._max_frame,
                    timeout=self._io_timeout,
                    connect_timeout=self._connect_timeout,
                )
            except OSError as exc:
                last_error = exc
                time.sleep(backoff)
                continue
            try:
                transport.send((MSG_INIT, self._factory, self._payload))
                reply = transport.recv()
            except (EOFError, OSError) as exc:
                transport.close()
                last_error = exc
                time.sleep(backoff)
                continue
            if reply[0] == REPLY_ERROR:
                transport.close()
                raise RuntimeError(
                    f"remote worker at {endpoint.host}:{endpoint.port} "
                    f"failed to initialise:\n{reply[1]}"
                )
            if reply[0] != REPLY_READY:  # pragma: no cover - protocol bug
                transport.close()
                raise RuntimeError(f"unexpected init reply {reply[0]!r}")
            return _WorkerHandle(transport=transport, endpoint=endpoint)
        raise RuntimeError(
            f"cannot reach remote worker at {endpoint.host}:{endpoint.port} "
            f"after {attempts} attempts"
        ) from last_error

    def _respawn(self, index: int) -> _WorkerHandle:
        """Replace a dead worker: respawn locally, reconnect remotely."""
        old = self.workers[index]
        try:
            old.transport.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if old.endpoint is not None:
            self.workers[index] = self._connect(old.endpoint)
            self.stats.reconnects += 1
            if self._trace is not None:
                self._trace.instant(
                    "worker_reconnect", "fault",
                    tid=self._worker_tid(index), worker=index,
                )
        else:
            if old.process.is_alive():  # pragma: no cover - defensive
                old.process.terminate()
            old.process.join(timeout=5)
            self.workers[index] = self._spawn()
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
        epoch: int,
        bundles: list[tuple[int, list[int]]],
        update: TickUpdate,
        *,
        answer: EvalService | None = None,
        scoped: bool = False,
    ) -> dict[int, tuple[list[dict[str, object]], list[AoeRecord]]]:
        """One tick: update every bundled worker's replica, serve the
        mid-tick evaluation requests scoped workers forward, and gather
        per-shard results.

        *bundles* pairs worker indexes with the shard ids they decide
        (which, under ``scoped=True``, is also the replica scope each
        worker holds).  Deltas go to workers whose acked epoch matches
        ``update.base_epoch``; everyone else -- fresh, respawned,
        reconnected, drifted, or after a layout change -- gets the
        snapshot for its scope.  Epoch acks are verified against
        *epoch*; a ``STALE`` reply or a dead worker falls back to the
        snapshot within the same tick, and a dead worker is respawned
        (local) or reconnected (remote) at most once per tick before
        the failure is considered persistent.

        Returns ``{shard_id: (effect_rows, aoe_records)}``.
        """
        from multiprocessing import connection as mp_connection

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
            scope = frozenset(shard_ids) if scoped else None
            blob = None
            use_delta = False
            if allow_delta and worker.epoch == update.base_epoch:
                blob = update.delta_blob_for(scope)
                use_delta = blob is not None
            if blob is None:
                blob = update.snapshot_blob_for(scope)
            if worker.endpoint is not None and len(blob) > self._max_frame:
                # caught before the transport refuses locally: an
                # oversized update is a configuration problem, not a
                # dead worker -- reviving and retrying the same blob
                # would only bury the actionable cause
                raise RuntimeError(
                    f"update blob of {len(blob)} bytes exceeds the "
                    f"transport frame guard (max_frame={self._max_frame}) "
                    f"for worker at {worker.endpoint.host}:"
                    f"{worker.endpoint.port}; raise worker_max_frame (and "
                    "--max-frame on the listener) to admit a full snapshot"
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
                    "respawn; the game factory likely fails persistently"
                )
            revived.add(worker_index)
            self._respawn(worker_index)
            try:
                # a fresh holder chains no delta
                send_update(worker_index, shard_ids, allow_delta=False)
            except (BrokenPipeError, ConnectionError, OSError) as exc:
                raise RuntimeError(
                    "shard worker died again immediately after its "
                    "respawn; the game factory likely fails persistently"
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
                # io_timeout guards individual send/recv calls, and a
                # vanished peer surfaces once the OS resets its
                # connection (readable -> recv error -> revive)
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
                if tag == REQ_EVAL:
                    # a scoped worker forwarding a probe or action the
                    # coordinator must answer before the worker's tick
                    # reply can arrive
                    stats.remote_evals += 1
                    t_eval = time.perf_counter()
                    if answer is None:  # pragma: no cover - wiring bug
                        response = (
                            REPLY_EVAL_ERROR,
                            "coordinator has no evaluation service",
                        )
                    else:
                        response = answer(reply[1])
                    if self._trace is not None:
                        self._trace.complete_perf(
                            "remote_eval", "worker", t_eval,
                            time.perf_counter(),
                            tid=self._worker_tid(worker_index),
                            epoch=epoch, worker=worker_index,
                        )
                    try:
                        transport.send(response)
                    except (BrokenPipeError, ConnectionError, OSError):
                        revive(worker_index, shard_ids)
                    continue
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

        The worker closes its side immediately (a remote listener loops
        back to ``accept``); the coordinator discovers the death on its
        next send and takes the respawn/reconnect + snapshot path.
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
            if worker.process is not None:
                worker.process.join(timeout=5)
                if worker.process.is_alive():  # pragma: no cover - stuck
                    worker.process.terminate()
                    worker.process.join(timeout=5)
            try:
                worker.transport.close()
            except OSError:  # pragma: no cover - already closed
                pass


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    main()
