"""Run one workload: set-up, warm-up, measured closed loop, output checks.

:func:`measure` drives one simulation (optionally under a
:class:`~.spans.Tracer`) and returns every metric that does not need
spans; :func:`run_timed` and :func:`run_traced` are the two runs the
ledger makes per workload:

* the **timed run** -- tracing off -- yields the end-to-end metrics;
* the **traced run** measures the same ticks twice, first untraced
  (stage times from ``TickStats``, query and log numbers, counters) and
  then with the layer entry points wrapped (self times, call counts),
  and checks that both reach the same state.

The load is a closed loop: the next tick starts when the previous one
returned and, on the served workload, when the single client has its
replies.  Everything that only checks outputs (authoritative answers,
digests) runs between iterations, outside every timed span.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import os
import random
import resource
import statistics
import tempfile
import time
import warnings
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro import (
    AuthoritativeQueryService,
    BattleSimulation,
    battle_schema,
    compile_script,
    unit_ref,
)
from repro.persist.log import EpochLogReader
from repro.serve.spectator import SpectatorError

from .spans import ROOT, Tracer
from .spec import (
    COMMON_SIM_KWARGS,
    MIN_TICKS,
    PER_LAYER,
    TRACE_TARGETS,
    Scale,
    Workload,
    tick_counts,
)

OUT_DIR = Path(__file__).resolve().parent / "out"

#: The compiled-from-source query kind: one team's size and total HP.
TEAM_HP_SQL = """
function TeamHp(p) returns
SELECT Count(*) AS n, Sum(health) AS hp
FROM E e
WHERE e.player = p;
"""

QUERY_KINDS = ("sgl_source", "aggregate", "team_counts", "hp_histogram", "knn")

#: The time-travel query (and the per-epoch authoritative answer kept to
#: check it against).
HISTORY_QUERY = ("hp_histogram", (), {"bucket": 25})


# -- small statistics ---------------------------------------------------------


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank *q*-th percentile (``None`` for no samples)."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def quartiles(values: list[float]) -> list[float] | None:
    if len(values) < 2:
        return None
    return statistics.quantiles(values, n=4)


def state_digest(sim: BattleSimulation) -> str:
    return hashlib.sha256(repr(sim.state_signature()).encode()).hexdigest()


def reference_digest(units: int, seed: int, ticks: int) -> str:
    """Digest of the flat serial engine after *ticks* ticks (untimed)."""
    with BattleSimulation(units, seed=seed, **COMMON_SIM_KWARGS) as sim:
        sim.run(ticks)
        return state_digest(sim)


class Checks:
    """Operations attempted and failed, with what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


# -- one simulation and what it serves ----------------------------------------


def make_query(kind: str, rng: random.Random, units: int, grid: int):
    """``(source_or_name, args, params)`` for one seeded query of *kind*."""
    if kind == "sgl_source":
        return TEAM_HP_SQL, (rng.randrange(2),), {}
    if kind == "aggregate":
        return "CountFriendlyKnights", (unit_ref(rng.randrange(units)),), {}
    if kind == "team_counts":
        return "team_counts", (), {}
    if kind == "hp_histogram":
        return "hp_histogram", (), {"bucket": 25}
    return "knn", (5, rng.uniform(0, grid), rng.uniform(0, grid)), {}


class Battle:
    """One simulation plus, on the served workload, its replica, client,
    epoch log and authoritative twin -- stepped one closed-loop
    iteration at a time."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        scale: Scale,
        tmp_dir: str,
        checks: Checks,
    ):
        self.workload = workload
        self.units = scale.units or workload.units
        self.rounds = scale.query_rounds
        self.checks = checks
        self.rng = random.Random(seed)
        self.log_path: str | None = None
        self._stack = ExitStack()
        self.client = None
        #: epoch -> authoritative answer to HISTORY_QUERY at that epoch
        self._history: dict[int, object] = {}
        self.tick_stats: list = []
        self.tick_s: list[float] = []
        self.iter_s: list[float] = []
        self.fresh_ms: list[float] = []
        self.query_ms: dict[str, list[float]] = {k: [] for k in QUERY_KINDS}
        self.history_ms: list[float] = []
        self.answer_ms: list[float] = []
        kwargs = {**COMMON_SIM_KWARGS, **workload.sim_kwargs}
        start = time.perf_counter()
        try:
            if workload.served:
                fd, self.log_path = tempfile.mkstemp(dir=tmp_dir, suffix=".log")
                os.close(fd)
                kwargs.update(spectators=True, epoch_log=self.log_path)
            self.sim = self._stack.enter_context(
                BattleSimulation(self.units, seed=seed, **kwargs)
            )
            self.construct_s = time.perf_counter() - start
            if workload.served:
                replica = self._stack.enter_context(self.sim.spawn_spectator())
                self.client = self._stack.enter_context(replica.client())
                self.authority = AuthoritativeQueryService(self.sim.engine)
            # set-up ends when the first tick has returned (and, served,
            # the replica answered at its epoch): the worker pool, the
            # runner cache and the first snapshot broadcast are all lazy
            self.step(queries=False)
        except BaseException:
            self._stack.close()
            raise
        self.setup_s = time.perf_counter() - start
        self.first_tick_s = self.tick_s[0]

    def close(self) -> None:
        self._stack.close()

    @property
    def ticks(self) -> int:
        return self.sim.engine.tick_count

    def _ask(self, query, *, epoch: int, samples: list[float] | None = None):
        """One client round trip; ``None`` (a failed op) if it raises."""
        name, args, params = query
        start = time.perf_counter()
        try:
            answer = self.client.query(name, *args, epoch=epoch, **params)
        except SpectatorError as exc:
            self.checks.op(False, f"query {name.split()[0]!r}: {exc}")
            return None
        if samples is not None:
            samples.append((time.perf_counter() - start) * 1e3)
        self.checks.op(
            answer.epoch == epoch,
            f"query {name.split()[0]!r} answered at {answer.epoch}, "
            f"pinned to {epoch}",
        )
        return answer

    def step(self, *, tracer: Tracer | None = None, queries: bool = True) -> None:
        """One closed-loop iteration: a tick, then the client's queries."""
        iter_start = time.perf_counter()
        with tracer.tick(self.ticks + 1) if tracer else nullcontext():
            start = time.perf_counter()
            stats = self.sim.tick()
            tick_end = time.perf_counter()
        self.checks.op(True, "tick")
        self.tick_s.append(tick_end - start)
        self.tick_stats.append(stats)
        if self.client is None:
            self.iter_s.append(tick_end - iter_start)
            return
        answers = self._query(tick_end, queries)
        self.iter_s.append(time.perf_counter() - iter_start)
        self._verify(*answers)

    def _query(self, tick_end: float, mix: bool) -> tuple:
        """The client's reads after a tick: wait for the new epoch, then
        (*mix*) the pinned query rounds and one time-travel query."""
        epoch = self.ticks + 1
        fresh = self._ask(("team_counts", (), {}), epoch=epoch)
        if fresh is not None:
            # tick return -> first answer at the new epoch
            self.fresh_ms.append((time.perf_counter() - tick_end) * 1e3)
        first_round: list[tuple] = []
        past = None
        if mix:
            grid = self.sim.grid_size
            for round_no in range(self.rounds):
                for kind in QUERY_KINDS:
                    query = make_query(kind, self.rng, self.units, grid)
                    answer = self._ask(
                        query, epoch=epoch, samples=self.query_ms[kind]
                    )
                    if round_no == 0:
                        first_round.append((kind, query, answer))
            if self._history:
                past_epoch = self.rng.choice(list(self._history))
                past = (
                    past_epoch,
                    self._ask(
                        HISTORY_QUERY, epoch=past_epoch, samples=self.history_ms
                    ),
                )
        return epoch, fresh, first_round, past

    def _verify(self, epoch: int, fresh, first_round: list, past) -> None:
        """Output checks, outside every timed span: the replica must
        agree with the authoritative engine at the same epoch."""
        authority = self.authority
        if fresh is not None:
            want = authority.answer("team_counts")
            self.checks.op(fresh.value == want.value, f"fresh read at {epoch}")
        for kind, (name, args, params), answer in first_round:
            start = time.perf_counter()
            want = authority.answer(name, *args, **params)
            self.answer_ms.append((time.perf_counter() - start) * 1e3)
            if answer is not None:
                self.checks.op(
                    answer.value == want.value,
                    f"{kind} answer diverged at epoch {epoch}",
                )
        if past is not None and past[1] is not None:
            self.checks.op(
                past[1].value == self._history[past[0]],
                f"time travel to epoch {past[0]} diverged",
            )
        name, args, params = HISTORY_QUERY
        self._history[epoch] = authority.answer(name, *args, **params).value


# -- the measured run -----------------------------------------------------------


@dataclass
class Measurement:
    """What one :func:`measure` call observed."""

    metrics: dict[str, float | None]
    #: Timing sample sets behind the medians, for quartiles and counts.
    timings: dict[str, list[float]]
    digests: dict[str, object]
    warmup: int
    tick_stats: list
    checks: Checks

    def record(self) -> dict:
        """The JSON form (without raw samples)."""
        timings = {k: v for k, v in self.timings.items() if v}
        return {
            "metrics": self.metrics,
            "quartiles": {k: quartiles(v) for k, v in timings.items()},
            "samples": {k: len(v) for k, v in timings.items()},
            "digests": self.digests,
            "ticks": {"warmup": self.warmup, "measured": len(self.tick_stats)},
            "attempted": self.checks.attempted,
            "failed": self.checks.failed,
            "failures": self.checks.failures,
        }


_STAGES = {
    "clock.partition_s": "partition_time",
    "clock.maintenance_s": "maintenance_time",
    "clock.decision_s": "decision_time",
    "clock.aoe_s": "aoe_time",
    "clock.combine_s": "combine_time",
    "clock.mechanics_s": "mechanics_time",
    "clock.publish_s": "publish_time",
    "clock.log_s": "log_time",
}

_EVALUATOR_COUNTS = (
    "build_divisible", "build_sweep", "build_kdtree", "probe_divisible",
    "probe_sweep", "probe_kdtree", "probe_scan", "sweep_miss", "sweep_reuse",
    "rebuild_ticks", "delta_ticks",
)


def _stage_medians(stats: list) -> dict[str, float | None]:
    m = {
        name: median([getattr(s, attr) for s in stats])
        for name, attr in _STAGES.items()
    }
    m["clock.other_s"] = median(
        [
            s.total_time - sum(getattr(s, attr) for attr in _STAGES.values())
            for s in stats
        ]
    )
    m["clock.effect_rows"] = median([s.effect_rows for s in stats])
    m["clock.aoe_records"] = median([s.aoe_records for s in stats])
    return m


def measure(
    workload: Workload,
    seed: int,
    scale: Scale,
    *,
    warmup: int,
    ticks: int | None = None,
    seconds: float | None = None,
    setup_repeats: int = 1,
    tracer: Tracer | None = None,
) -> Measurement:
    """Set up, warm up, measure *ticks* ticks (or for *seconds*), check.

    Span-derived metrics are the caller's to add, from *tracer*'s folds.
    """
    if (ticks is None) == (seconds is None):
        raise ValueError("pass exactly one of ticks / seconds")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT_DIR) as tmp_dir:
        return _measure(
            workload, seed, scale, tmp_dir,
            warmup=warmup, ticks=ticks, seconds=seconds,
            setup_repeats=setup_repeats, tracer=tracer,
        )


def _measure(
    workload: Workload,
    seed: int,
    scale: Scale,
    tmp_dir: str,
    *,
    warmup: int,
    ticks: int | None,
    seconds: float | None,
    setup_repeats: int,
    tracer: Tracer | None,
) -> Measurement:
    checks = Checks()
    sharded = "num_shards" in workload.sim_kwargs
    # set up several times, keeping only the last battle alive: a
    # retained simulation would count towards the next one's peak RSS
    setups: list[tuple[float, float, float]] = []
    battle = None
    for _ in range(setup_repeats):
        if battle is not None:
            battle.close()
            battle = None
            gc.collect()
        battle = Battle(workload, seed, scale, tmp_dir, checks)
        setups.append((battle.setup_s, battle.construct_s, battle.first_tick_s))
    sim = battle.sim
    units = battle.units
    setup_s, construct_s, first_tick_s = zip(*setups)
    m: dict[str, float | None] = {
        "setup_s": median(setup_s),
        "setup.construct_s": median(construct_s),
        "setup.first_tick_s": median(first_tick_s),
    }
    try:
        for _ in range(warmup - 1):
            battle.step()
        # set-up and warm-up iterations are not samples
        for samples in (
            battle.tick_stats, battle.tick_s, battle.iter_s, battle.fresh_ms,
            battle.history_ms, battle.answer_ms, *battle.query_ms.values(),
        ):
            samples.clear()
        digests = {"check_tick": battle.ticks, "check": state_digest(sim)}
        if sharded:
            checks.op(
                digests["check"] == reference_digest(units, seed, battle.ticks),
                "sharded state differs from the flat engine's at tick "
                f"{battle.ticks}",
            )
        evaluator = getattr(sim.engine, "agg_eval", None)
        counts_before = dict(getattr(evaluator, "stats", {}))

        # wrappers go in after set-up: forked workers and replicas must
        # not inherit them
        with tracer or nullcontext():
            deadline = None if seconds is None else time.perf_counter() + seconds
            while True:
                battle.step(tracer=tracer)
                done = len(battle.tick_s)
                if ticks is not None and done >= ticks:
                    break
                if (
                    deadline is not None
                    and done >= MIN_TICKS
                    and time.perf_counter() >= deadline
                ):
                    break

        digests.update(final_tick=battle.ticks, final=state_digest(sim))
        stats = battle.tick_stats
        n = len(stats)
        m["tick_s_p50"] = median(battle.tick_s)
        m["tick_s_p80"] = percentile(battle.tick_s, 80)
        m["unit_ticks_per_s"] = units * n / sum(battle.iter_s)
        m.update(_stage_medians(stats))
        counts_after = dict(getattr(evaluator, "stats", {}))
        for name in _EVALUATOR_COUNTS:
            m[f"evaluator.{name}"] = (
                counts_after.get(name, 0) - counts_before.get(name, 0)
            ) / n
        if hasattr(evaluator, "index_counters"):
            m["evaluator.depth_rebuilds"] = evaluator.index_counters().get(
                "depth_rebuilds"
            )
        if sharded or workload.served:
            m["wire_bytes_per_tick"] = statistics.fmean(
                s.broadcast_bytes + s.publish_bytes for s in stats
            )
        if sharded:
            pool = sim.engine.worker_stats
            for name in (
                "delta_broadcasts", "snapshot_broadcasts", "stale_snapshots",
                "respawns",
            ):
                m[f"shardexec.{name}"] = getattr(pool, name, None)
            m["shardexec.broadcast_bytes"] = statistics.fmean(
                s.broadcast_bytes for s in stats
            )
        if workload.served:
            _served_metrics(battle, m, checks, scale)
    finally:
        battle.close()

    usage = resource.getrusage
    m["peak_rss_mb"] = (
        usage(resource.RUSAGE_SELF).ru_maxrss
        + usage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0
    m["failed_share"] = checks.failed / checks.attempted
    return Measurement(
        metrics=m,
        timings={
            "tick_s": battle.tick_s,
            "spectator.fresh_read_ms": battle.fresh_ms,
            "query_ms": [v for vs in battle.query_ms.values() for v in vs],
        },
        digests=digests,
        warmup=warmup,
        tick_stats=stats,
        checks=checks,
    )


def _served_metrics(battle: Battle, m: dict, checks: Checks, scale: Scale) -> None:
    """Query, publisher and epoch-log numbers; recovery and replay checks.

    Closes the battle: the log must be complete before it is read back.
    """
    sim = battle.sim
    stats = battle.tick_stats
    queries = [v for vs in battle.query_ms.values() for v in vs]
    m["query_ms_p50"] = median(queries)
    m["query_ms_p90"] = percentile(queries, 90)
    m["spectator.fresh_read_ms_p50"] = median(battle.fresh_ms)
    for kind, samples in battle.query_ms.items():
        m[f"spectator.query_ms_p50.{kind}"] = median(samples)
    m["queries.answer_ms_p50"] = median(battle.answer_ms)
    m["history.time_travel_ms_p50"] = median(battle.history_ms)
    m["spectator.updates_applied"] = battle.client.status()["updates_applied"]
    m["publisher.publish_bytes"] = statistics.fmean(s.publish_bytes for s in stats)
    publisher = sim.engine.publisher.stats
    for name in ("delta_sends", "snapshot_sends", "drops"):
        m[f"publisher.{name}"] = getattr(publisher, name, None)

    log = sim.engine.epoch_log
    start = time.perf_counter()
    log.flush()
    m["persist.flush_wait_s"] = time.perf_counter() - start
    m["persist.log_bytes"] = log.stats.bytes_enqueued
    m["persist.checkpoints"] = log.stats.snapshot_records
    m["persist.deltas"] = log.stats.delta_records
    live_signature = sim.state_signature()
    live_rows = [dict(row) for row in sim.environment.rows]
    logged_ticks = battle.ticks
    battle.close()

    path = battle.log_path
    m["log_bytes_per_tick"] = os.path.getsize(path) / logged_ticks
    recover_s = []
    for _ in range(scale.recover_repeats):
        start = time.perf_counter()
        recovered = BattleSimulation.recover(path, resume_log=False)
        recover_s.append(time.perf_counter() - start)
        with recovered:
            checks.op(
                recovered.state_signature() == live_signature,
                "recovered state differs from the live state",
            )
    m["recover_s"] = median(recover_s)
    start = time.perf_counter()
    replayed = 0
    rows: list = []
    with EpochLogReader(path) as reader:
        for _epoch, rows in reader.replay_states():
            replayed += 1
    m["persist.replay_ticks_per_s"] = replayed / (time.perf_counter() - start)
    # the log holds the attach-time state plus one record per tick
    checks.op(
        replayed == logged_ticks + 1 and rows == live_rows,
        f"replay reached {replayed} states (want {logged_ticks + 1}) or "
        "its last rows differ from the live state",
    )


# -- the two runs of a workload ------------------------------------------------


def run_timed(
    workload: Workload, seed: int, scale: Scale, seconds: float | None = None
) -> dict:
    """The tracing-off run behind the end-to-end metrics."""
    warmup, timed, _, _ = tick_counts(workload, scale)
    return measure(
        workload, seed, scale,
        warmup=warmup,
        ticks=None if seconds is not None else timed,
        seconds=seconds,
        setup_repeats=scale.setup_repeats,
    ).record()


def _time_setup_stage(fn, repeats: int = 5) -> float | None:
    """Median seconds of one set-up stage, ``None`` if its API is gone."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            fn()
        except (ImportError, AttributeError) as exc:
            warnings.warn(f"ledger set-up stage unavailable: {exc}", RuntimeWarning)
            return None
        samples.append(time.perf_counter() - start)
    return median(samples)


def _compile_battle_scripts() -> None:
    scripts = importlib.import_module("repro.game.scripts")
    registry = scripts.build_registry()
    for name in ("KNIGHT_SCRIPT", "ARCHER_SCRIPT", "HEALER_SCRIPT"):
        compile_script(getattr(scripts, name), registry, battle_schema())


def _plan_battle_scripts() -> None:
    algebra = importlib.import_module("repro.algebra")
    scripts = importlib.import_module("repro.game.scripts")
    registry = scripts.build_registry()
    for script in scripts.build_scripts().values():
        algebra.optimize(algebra.translate_script(script, registry), registry)


def run_oracle(units: int, seed: int, checks: Checks) -> float:
    """Naive vs indexed evaluator on a small battle: states must be
    equal; returns the wall-clock ratio naive / indexed over 3 ticks."""
    elapsed = {}
    signatures = {}
    for mode in ("naive", "indexed"):
        kwargs = {**COMMON_SIM_KWARGS, "mode": mode}
        with BattleSimulation(units, seed=seed, **kwargs) as sim:
            start = time.perf_counter()
            sim.run(3)
            elapsed[mode] = time.perf_counter() - start
            signatures[mode] = sim.state_signature()
    checks.op(
        signatures["naive"] == signatures["indexed"],
        f"naive and indexed evaluators diverge at {units} units",
    )
    return elapsed["naive"] / elapsed["indexed"]


def _span_metrics(tracer: Tracer, stats: list) -> dict[str, float | None]:
    """Per-tick medians of the traced run's per-group totals."""
    folds = tracer.folds
    groups = set(tracer.groups)

    def med(kind: str, group: str) -> float | None:
        if group not in groups:
            return None  # every target of the group is gone
        return median([getattr(f, kind)[group] for f in folds])

    m = {
        "decision.run_unit_calls": med("calls", "decision.run_unit"),
        "decision.run_unit_s": med("outer_s", "decision.run_unit"),
        "sgl.interp_self_s": med("self_s", "decision.run_unit"),
        "evaluator.begin_tick_s": med("outer_s", "evaluator.begin_tick"),
        "evaluator.prepare_s": med("outer_s", "evaluator.prepare"),
        "evaluator.evaluate_calls": med("calls", "evaluator.evaluate"),
        "evaluator.evaluate_s": med("outer_s", "evaluator.evaluate"),
        "evaluator.evaluate_self_s": med("self_s", "evaluator.evaluate"),
        "env.combine_s": med("outer_s", "env.combine"),
        "env.combine_rows_in": med("count", "env.combine"),
        "env.diff_s": med("outer_s", "env.diff"),
        "env.diff_calls": med("calls", "env.diff"),
        "env.encode_s": med("outer_s", "env.encode"),
        "env.encode_calls": med("calls", "env.encode"),
        "env.encode_bytes": med("count", "env.encode"),
        "movement.run_phase_s": med("outer_s", "movement.run_phase"),
        "effects.resolve_aoe_s": med("outer_s", "effects.resolve_aoe"),
        "shardexec.run_tick_s": med("outer_s", "shardexec.run_tick"),
        "publisher.publish_s": med("outer_s", "publisher.publish"),
        "persist.append_s": med("outer_s", "persist.append"),
        "trace.spans": median([f.spans for f in folds]),
    }
    for part in ("build", "probe", "update"):
        m[f"indexes.{part}_s"] = med("outer_s", f"indexes.{part}")
        m[f"indexes.{part}_calls"] = med("calls", f"indexes.{part}")
    if "decision.run_unit" in groups:
        m["sgl.interp_self_us_per_unit"] = median(
            [
                f.self_s["decision.run_unit"] * 1e6 / f.calls["decision.run_unit"]
                for f in folds
                if f.calls["decision.run_unit"]
            ]
        )
    if "movement.run_phase" in groups:
        mechanics_self = [
            s.mechanics_time - f.outer_s["movement.run_phase"]
            for s, f in zip(stats, folds)
        ]
        m["game.mechanics_self_s"] = median(mechanics_self)
        # covered = every wrapped group's self time plus the game's own
        # mechanics code (timed by the engine, not wrapped)
        m["trace.coverage_ratio"] = median(
            [
                1.0 - (f.self_s[ROOT] - own) / f.duration
                for f, own in zip(folds, mechanics_self)
            ]
        )
    if "shardexec.run_tick" in groups:
        m["shardexec.coordinator_self_s"] = median(
            [f.duration - f.outer_s["shardexec.run_tick"] for f in folds]
        )
    return m


def run_traced(
    workload: Workload, seed: int, scale: Scale, seconds: float | None = None
) -> dict:
    """The traced run behind the per-layer metrics.

    Measures the same ticks twice -- untraced, then with every layer
    entry point wrapped -- so stage times and query latencies are free
    of tracing cost, and the ratio of the two is the tracing overhead.
    With *seconds* the untraced half runs for 45 % of it and fixes the
    tick count the traced half repeats.
    """
    _, _, warmup, traced = tick_counts(workload, scale)
    plain = measure(
        workload, seed, scale,
        warmup=warmup,
        ticks=None if seconds is not None else traced,
        seconds=None if seconds is None else 0.45 * seconds,
    )
    tracer = Tracer(TRACE_TARGETS)
    shadow = measure(
        workload, seed, scale,
        warmup=warmup, ticks=len(plain.tick_stats), tracer=tracer,
    )
    checks = plain.checks
    checks.attempted += shadow.checks.attempted
    checks.failed += shadow.checks.failed
    checks.failures += shadow.checks.failures
    checks.op(
        shadow.digests == plain.digests,
        "traced and untraced runs reach different states",
    )
    checks.op(
        all(f.max_child_excess <= 1e-9 for f in tracer.folds),
        "a child span outlived its parent",
    )
    m = plain.metrics
    m.update(_span_metrics(tracer, shadow.tick_stats))
    m["trace.overhead_ratio"] = shadow.metrics["tick_s_p50"] / m["tick_s_p50"]
    m["sgl.compile_scripts_s"] = _time_setup_stage(_compile_battle_scripts)
    m["algebra.plan_s"] = _time_setup_stage(_plan_battle_scripts)
    if workload.name == "battle_uniform":
        m["evaluator.naive_over_indexed_200"] = run_oracle(
            scale.oracle_units, seed, checks
        )
    m["failed_share"] = checks.failed / checks.attempted
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    tracer.write_chrome_trace(str(trace_path))

    record = plain.record()
    # a metric reads null off the workloads it is defined on
    record["metrics"] = {
        metric.name: m.get(metric.name) if workload.name in metric.on else None
        for metric in PER_LAYER
    }
    record["tracing"] = {
        "file": f"out/{trace_path.name}",
        "missing_targets": tracer.missing,
        "tick_s_p50": shadow.metrics["tick_s_p50"],
    }
    return record
