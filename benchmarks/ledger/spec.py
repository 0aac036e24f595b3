"""What the ledger measures: workloads, metrics, and trace targets.

This file is the single table the runner, the comparer, the self-test
and the README agree on.  ``BENCHMARK.json`` at the repo root repeats
the part of it the driver's contract has a place for (the self-test
asserts the two agree).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .spans import Target


@dataclass(frozen=True)
class Workload:
    """One battle configuration, with its fixed-mode tick counts."""

    name: str
    why: str
    units: int
    #: ``BattleSimulation`` keywords beyond the common ones.
    sim_kwargs: dict = field(default_factory=dict)
    #: Spectator replica + epoch log + one query client beside the ticks.
    served: bool = False
    warmup: int = 6
    timed: int = 60
    traced_warmup: int = 2
    traced: int = 10


#: Every workload shares these (the paper's set-up: 1 % density,
#: uniform placement, constant population).
COMMON_SIM_KWARGS = dict(
    density=0.01, formation="uniform", mode="indexed", resurrection=True
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "battle_uniform",
            "2000 units on the flat serial engine: the reference battle; SGL "
            "interpretation, evaluator and index bulk build + probe do all "
            "the work",
            units=2000,
        ),
        Workload(
            "battle_large",
            "5000 units, same code at 2.5x the working set: shows the n log n "
            "shape, index-build share and memory growth; per-unit and "
            "per-probe gains separate here",
            units=5000,
            warmup=2,
            timed=20,
            traced_warmup=1,
            traced=4,
        ),
        Workload(
            "battle_sharded",
            "2000 units over 2 spatial shards x 2 process workers: shardexec, "
            "transport and delta encode/apply; workers keep indexes "
            "incrementally; state must equal the flat run's bit for bit",
            units=2000,
            sim_kwargs=dict(
                num_shards=2,
                shard_by="spatial",
                parallelism="processes",
                max_workers=2,
            ),
        ),
        Workload(
            "battle_served",
            "1000 units ticking beside a spectator replica, an epoch log and "
            "one client issuing 21 pinned queries + 1 time-travel query per "
            "tick: serve, persist and env diff+encode",
            units=1000,
            served=True,
            warmup=4,
            timed=100,
            traced_warmup=2,
            traced=12,
        ),
    )
}


@dataclass(frozen=True)
class Scale:
    """How much of a workload one run does."""

    #: Unit count and ``(warmup, timed, traced_warmup, traced)`` ticks;
    #: ``None`` = the workload's own.
    units: int | None
    ticks: tuple[int, int, int, int] | None
    query_rounds: int
    setup_repeats: int
    recover_repeats: int
    oracle_units: int


SCALES = {
    "full": Scale(None, None, 4, 3, 5, 200),
    # the tier-1 self-test: 60 units, 3 ticks, 1 query round
    "tiny": Scale(60, (1, 3, 1, 3), 1, 1, 1, 30),
}

#: A time-bounded phase never measures fewer ticks than this.
MIN_TICKS = 3


def tick_counts(workload: Workload, scale: Scale) -> tuple[int, int, int, int]:
    """``(warmup, timed, traced_warmup, traced)`` ticks at *scale*."""
    return scale.ticks or (
        workload.warmup, workload.timed, workload.traced_warmup, workload.traced
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

ALL = tuple(WORKLOADS)
FLAT = ("battle_uniform", "battle_large")
SHARDED = ("battle_sharded",)
SERVED = ("battle_served",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Workloads on which the metric is defined (``null`` elsewhere).
    on: tuple[str, ...] = ALL
    #: Relative worsening that counts as a regression; ``None`` = not gated.
    bound: float | None = None
    #: Deterministic for a seed: any difference between two runs of the
    #: same commit is a failure, and compare reports it as a count.
    exact: bool = False
    #: The end-to-end metric this one should move, and where (README).
    moves: str = ""


#: The contract's ``end_to_end`` list: defined and non-zero on every
#: workload, printed by ``run.py --trace 0``.
END_TO_END = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("tick_s_p50", "s", "lower", bound=0.25),
    Metric("unit_ticks_per_s", "1/s", "higher", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", bound=0.15),
)

#: User-visible metrics that exist only on some workloads (or need >= 50
#: samples): gated by ``compare`` with these bounds (exact ones may not
#: differ at all), but listed under the contract's ``per_layer`` because
#: the contract's ``end_to_end`` metrics must be non-zero on every
#: workload.
WORKLOAD_END_TO_END = (
    Metric("tick_s_p80", "s", "lower", bound=0.25),
    Metric("wire_bytes_per_tick", "B", "lower", SHARDED + SERVED, exact=True),
    Metric("query_ms_p50", "ms", "lower", SERVED, 0.25),
    Metric("query_ms_p90", "ms", "lower", SERVED, 0.30),
    Metric("log_bytes_per_tick", "B", "lower", SERVED, exact=True),
    Metric("recover_s", "s", "lower", SERVED, 0.30),
    Metric("failed_share", "ratio", "lower", exact=True),
)


def _layer(prefix: str, rows: list[tuple], *, on=ALL, moves="") -> list[Metric]:
    """Ungated metrics ``<prefix>.<name>`` from ``(name, unit, better[,
    exact])`` rows that share their workloads and their target."""
    out = []
    for row in rows:
        name, unit, better = row[:3]
        exact = len(row) > 3 and row[3]
        out.append(
            Metric(f"{prefix}.{name}", unit, better, on, None, exact, moves)
        )
    return out


_S = ("s", "lower")
_N = ("count", "lower")

LAYERS: tuple[Metric, ...] = tuple(
    _layer("setup", [("construct_s", *_S), ("first_tick_s", *_S)],
           moves="setup_s")
    + _layer(
        "clock",
        [("partition_s", *_S), ("maintenance_s", *_S), ("decision_s", *_S),
         ("aoe_s", *_S), ("combine_s", *_S), ("mechanics_s", *_S),
         ("other_s", *_S), ("effect_rows", *_N), ("aoe_records", *_N)],
        moves="tick_s_p50",
    )
    + _layer("clock", [("publish_s", *_S), ("log_s", *_S)], on=SERVED,
             moves="tick_s_p50 on battle_served")
    + _layer(
        "decision", [("run_unit_calls", *_N, True), ("run_unit_s", *_S)],
        on=FLAT + SERVED, moves="tick_s_p50, unit_ticks_per_s",
    )
    + _layer(
        "sgl", [("interp_self_s", *_S), ("interp_self_us_per_unit", "us", "lower")],
        on=FLAT + SERVED, moves="tick_s_p50, unit_ticks_per_s",
    )
    + _layer("sgl", [("compile_scripts_s", *_S)], moves="setup_s")
    + _layer("algebra", [("plan_s", *_S)], moves="setup_s")
    + _layer(
        "evaluator",
        [("begin_tick_s", *_S), ("prepare_s", *_S), ("evaluate_calls", *_N, True),
         ("evaluate_s", *_S), ("evaluate_self_s", *_S)],
        on=FLAT + SERVED, moves="tick_s_p50",
    )
    + _layer(
        "evaluator",
        [(name, "count", better, True) for name, better in (
            ("build_divisible", "lower"), ("build_sweep", "lower"),
            ("build_kdtree", "lower"), ("probe_divisible", "lower"),
            ("probe_sweep", "lower"), ("probe_kdtree", "lower"),
            ("probe_scan", "lower"), ("sweep_miss", "lower"),
            ("sweep_reuse", "higher"), ("rebuild_ticks", "lower"),
            ("delta_ticks", "higher"), ("depth_rebuilds", "lower"))],
        moves="tick_s_p50 (probe_scan must stay 0)",
    )
    + _layer("evaluator", [("naive_over_indexed_200", "ratio", "higher")],
             on=("battle_uniform",), moves="oracle check")
    + _layer(
        "indexes",
        [("build_s", *_S), ("build_calls", *_N, True), ("probe_s", *_S),
         ("probe_calls", *_N, True), ("update_s", *_S),
         ("update_calls", *_N, True)],
        on=FLAT + SERVED, moves="tick_s_p50",
    )
    + _layer(
        "env",
        [("combine_s", *_S), ("combine_rows_in", *_N, True), ("diff_s", *_S),
         ("diff_calls", *_N, True), ("encode_s", *_S),
         ("encode_calls", *_N, True), ("encode_bytes", "B", "lower", True)],
        moves="tick_s_p50; encode_bytes -> wire/log bytes per tick",
    )
    + _layer("movement", [("run_phase_s", *_S)], moves="tick_s_p50 (<= 5 %)")
    + _layer("effects", [("resolve_aoe_s", *_S)], moves="tick_s_p50 (<= 5 %)")
    + _layer("game", [("mechanics_self_s", *_S)], moves="tick_s_p50 (<= 5 %)")
    + _layer(
        "shardexec",
        [("run_tick_s", *_S), ("coordinator_self_s", *_S),
         ("delta_broadcasts", "count", "higher", True),
         ("snapshot_broadcasts", *_N, True), ("stale_snapshots", *_N, True),
         ("respawns", *_N, True), ("broadcast_bytes", "B", "lower", True)],
        on=SHARDED, moves="tick_s_p50, wire_bytes_per_tick, setup_s",
    )
    + _layer(
        "publisher",
        [("publish_s", *_S), ("publish_bytes", "B", "lower", True),
         ("delta_sends", "count", "higher", True),
         ("snapshot_sends", *_N, True), ("drops", *_N, True)],
        on=SERVED, moves="tick_s_p50, wire_bytes_per_tick",
    )
    + _layer(
        "spectator",
        [("fresh_read_ms_p50", "ms", "lower"),
         ("updates_applied", "count", "higher", True)]
        + [(f"query_ms_p50.{kind}", "ms", "lower") for kind in (
            "sgl_source", "aggregate", "team_counts", "hp_histogram", "knn")],
        on=SERVED, moves="query_ms_p50, query_ms_p90",
    )
    + _layer("queries", [("answer_ms_p50", "ms", "lower")], on=SERVED,
             moves="query_ms_p50")
    + _layer("history", [("time_travel_ms_p50", "ms", "lower")], on=SERVED,
             moves="unit_ticks_per_s on battle_served")
    + _layer(
        "persist",
        [("append_s", *_S), ("log_bytes", "B", "lower", True),
         ("checkpoints", *_N, True), ("deltas", "count", "higher", True),
         ("flush_wait_s", *_S), ("replay_ticks_per_s", "1/s", "higher")],
        on=SERVED, moves="tick_s_p50, log_bytes_per_tick, recover_s",
    )
    + _layer(
        "trace",
        [("overhead_ratio", "ratio", "lower"), ("coverage_ratio", "ratio", "higher"),
         ("spans", *_N, True)],
        moves="the cost and reach of measuring",
    )
)

#: The contract's ``per_layer`` list, printed by ``run.py --trace 1``.
PER_LAYER: tuple[Metric, ...] = WORKLOAD_END_TO_END + LAYERS

METRICS: dict[str, Metric] = {
    m.name: m for m in END_TO_END + PER_LAYER
}


# ---------------------------------------------------------------------------
# Trace targets: the public callables at each layer boundary
# ---------------------------------------------------------------------------


def _rows_in(args: tuple, kwargs: dict, result: object) -> int:
    tables = args[0] if args else kwargs.get("tables")
    if not isinstance(tables, (list, tuple)):
        return 0  # never consume a one-shot iterable just to count it
    return sum(len(table) for table in tables)


def _bytes_out(args: tuple, kwargs: dict, result: object) -> int:
    return len(result) if isinstance(result, (bytes, bytearray)) else 0


def _targets(group: str, module: str, names: list[str], count=None) -> list[Target]:
    return [Target(f"{module}.{name}", group, count) for name in names]


_IDX = "repro.indexes"

TRACE_TARGETS: list[Target] = (
    _targets("decision.run_unit", "repro.engine.decision",
             ["DecisionRunner.run_unit"])
    + _targets("evaluator.begin_tick", "repro.engine.evaluator",
               ["IndexedEvaluator.begin_tick"])
    + _targets("evaluator.prepare", "repro.engine.evaluator",
               ["IndexedEvaluator.prepare"])
    + _targets("evaluator.evaluate", "repro.engine.evaluator",
               ["IndexedEvaluator.evaluate"])
    + _targets("indexes.build", f"{_IDX}.hash_layer", ["PartitionedIndex.__init__"])
    + _targets("indexes.build", f"{_IDX}.composite",
               ["GroupAggIndex.__init__", "partitioned_agg_tree",
                "partitioned_kdtree"])
    + _targets("indexes.build", f"{_IDX}.agg_range_tree",
               ["AggRangeTree2D.__init__", "PrefixAggregate1D.__init__"])
    + _targets("indexes.build", f"{_IDX}.kdtree",
               ["KDTree.__init__", "build_kdtree_from_rows"])
    + _targets("indexes.build", f"{_IDX}.sweepline",
               ["sweep_minmax", "sweep_arg_minmax"])
    + _targets("indexes.probe", f"{_IDX}.composite", ["GroupAggIndex.query"])
    + _targets("indexes.probe", f"{_IDX}.agg_range_tree",
               ["AggRangeTree2D.query", "AggRangeTree2D.count",
                "PrefixAggregate1D.query", "PrefixAggregate1D.count"])
    + _targets("indexes.probe", f"{_IDX}.kdtree",
               ["KDTree.nearest", "KDTree.within_radius"])
    + _targets("indexes.update", f"{_IDX}.hash_layer",
               ["PartitionedIndex.insert", "PartitionedIndex.delete",
                "PartitionedIndex.update"])
    + _targets("indexes.update", f"{_IDX}.composite",
               ["GroupAggIndex.insert", "GroupAggIndex.delete"])
    + _targets("indexes.update", f"{_IDX}.agg_range_tree",
               ["AggRangeTree2D.insert", "AggRangeTree2D.delete",
                "PrefixAggregate1D.insert", "PrefixAggregate1D.delete"])
    + _targets("indexes.update", f"{_IDX}.kdtree",
               ["KDTree.insert", "KDTree.delete", "KDTree.replace_item"])
    + _targets("env.combine", "repro.env.combine", ["combine_all"], _rows_in)
    + _targets("env.diff", "repro.env.table", ["diff_by_key"])
    + _targets("env.encode", "repro.env.sharding", ["encode_replica_delta"])
    + _targets("env.encode", "repro.env.sharding",
               ["delta_blob", "snapshot_blob"], _bytes_out)
    + _targets("movement.run_phase", "repro.engine.movement",
               ["run_movement_phase"])
    + _targets("effects.resolve_aoe", "repro.engine.effects", ["resolve_aoe"])
    + _targets("shardexec.run_tick", "repro.engine.shardexec",
               ["ReplicaWorkerPool.run_tick"])
    + _targets("publisher.publish", "repro.serve.publisher",
               ["ReplicaPublisher.publish"])
    + _targets("persist.append", "repro.persist.log",
               ["EpochLogWriter.append_epoch", "EpochLogWriter.append_state"])
)
