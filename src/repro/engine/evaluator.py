"""The two pluggable aggregate-query evaluators (Section 6).

"There are two 'pluggable' versions of our aggregate query evaluator.
One executes aggregate queries naively, using straightforward O(n)
algorithms, for a total cost of O(n²) per tick.  The other uses
in-memory indexing ... to reduce the complexity to O(n log n)."

* :class:`NaiveEvaluator` re-exports the scan evaluator of the reference
  interpreter -- every aggregate call walks all n environment rows.

* :class:`IndexedEvaluator` compiles each aggregate function's
  :class:`~repro.algebra.shapes.AggregateShape` once, then per tick
  builds exactly the index the shape calls for and answers every call
  by probing it:

  ========== ==============================================================
  shape      per-tick index
  ========== ==============================================================
  divisible  hash layers (eq/neq cats) → Figure-8 prefix-aggregate tree
  nearest    hash layers → kD-tree, residual conjuncts as search predicates
  extreme    Figure-9 sweep-line batches, grouped by constant range extents
  fallback   hash layers → partitioned row scan
  ========== ==============================================================

  By default indexes are rebuilt from scratch every tick, as the paper
  advocates for rapidly-changing data ("we are still likely to see
  significant performance gains even if, at each clock tick, we discard
  the index and build a new one from scratch").  But between ticks only
  the *changed* rows matter, so the evaluator also supports delta-driven
  **incremental maintenance** (``maintenance="incremental"`` or
  ``"auto"``): :meth:`IndexedEvaluator.begin_tick` takes the
  :class:`~repro.env.table.TableDelta` captured by the engine and routes
  inserted/deleted/updated rows into the retained structures instead of
  discarding them.  ``"auto"`` decides per tick from the delta it is
  handed -- patch while the changed-row fraction is at most
  ``_PATCH_FRACTION``, discard and rebuild lazily otherwise
  (:meth:`IndexedEvaluator._should_apply`, the one place that chooses)
  -- and any structure whose accumulated overlay outgrows
  ``_OVERLAY_BUDGET`` is dropped and lazily rebuilt.  Sweep-line batches
  are probe-set-dependent and stay rebuild-only.

Both evaluators return *identical* results -- including argmin/argmax
tie-breaks -- which the equivalence tests assert on random battles
under every maintenance mode.  One caveat: delta maintenance adds and
subtracts measure contributions in a different order than a fresh
build, so the equality of incremental and rebuilt answers is exact
only when the measure sums themselves are exact in floating point
(always true for integer-valued measures, like every measure in the
battle simulation).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..algebra.shapes import AggregateShape, classify_aggregate
from ..env.table import EnvironmentTable, TableDelta
from ..indexes.composite import GroupAggIndex
from ..indexes.hash_layer import PartitionedIndex
from ..indexes.kdtree import KDTree
from ..indexes.sweepline import sweep_arg_minmax
from ..obs import NULL_REGISTRY, StatCounters
from ..sgl import ast
from ..sgl.builtins import AggregateFunction, FunctionRegistry
from ..sgl.evalterm import EvalContext
from ..sgl.interp import NaiveAggregateEvaluator
from ..sgl.sqlspec import AggOutput, evaluate_aggregate_scan, finalize_outputs
from ..sgl.values import Record
from .compile import (
    Fn,
    Probe,
    compile_args,
    compile_filter,
    compile_term,
    frame_scope,
    row_scope,
)

#: The naive evaluator is exactly the reference interpreter's.
NaiveEvaluator = NaiveAggregateEvaluator

_INF = float("inf")


def empty_aggregate_result(outputs: Sequence[AggOutput]) -> object:
    """The value of an aggregate over an empty selection."""
    values = [
        0 if o.agg == "count" else (0 if o.agg == "sum" else None)
        for o in outputs
    ]
    return finalize_outputs(outputs, values)


@dataclass(frozen=True)
class CallHint:
    """A statically-analysable aggregate call site.

    ``arg_terms`` are the call's argument terms; a hint is only emitted
    when every term is computable from the unit row alone (the unit
    parameter, its attributes, and constants), which is what allows the
    sweep-line batches to be precomputed for all units at tick start.
    """

    function: str
    unit_param: str
    arg_terms: tuple[ast.Term, ...]


@dataclass
class _CompiledShape:
    """Per-aggregate static compilation artefacts: row-frame closures
    run per environment row at index build, probe-frame ones per call."""

    shape: AggregateShape
    probe: Probe
    measures: list = field(default_factory=list)  # row Fn per measured output
    measure_slot: list = field(default_factory=list)  # output idx -> slot/None
    build_filter: Fn | None = None  # e-only conjuncts
    value_fn: Fn | None = None  # extreme value term
    centers: tuple[Fn, Fn] | None = None  # nearest: the probe point
    residual: Fn | None = None  # nearest: per-candidate conjuncts


#: Mutation floor below which an incremental structure is never dropped.
_OVERLAY_MIN = 32

#: Drop a structure once its mutation count exceeds this fraction of its
#: size (overlay scans / tombstones degrade probes).
_OVERLAY_BUDGET = 0.5

#: ``maintenance="auto"`` patches the retained structures while at most
#: this fraction of the rows changed, and rebuilds above it.  Set from
#: ``benchmarks/bench_incremental.py`` (600 units; ``BENCH_incremental
#: .json``), patch-over-rebuild speedup by changed rows per tick:
#: 1% 1.51x, 2% 1.77x, 5% 1.38x, 10% 1.24x | 25% 0.79x, 50% 0.74x,
#: 100% 0.44x -- the crossover lies between 10% and 25%, and three more
#: full runs agreed on which side each rate falls.  Re-run the sweep
#: before moving it; not a knob.
_PATCH_FRACTION = 0.10


class IndexedEvaluator:
    """Index-backed aggregate evaluation.

    Per tick, either rebuilds every index from scratch (the paper's
    default) or maintains the retained structures from a row delta --
    see ``maintenance`` and the module docstring.
    """

    def __init__(
        self,
        registry: FunctionRegistry,
        *,
        cascade: bool = True,
        key_attr: str = "key",
        maintenance: str = "rebuild",
        shard_of: Callable[[Mapping[str, object]], int] | None = None,
        num_shards: int = 1,
    ):
        if maintenance not in ("rebuild", "incremental", "auto"):
            raise ValueError(f"unknown maintenance mode {maintenance!r}")
        self.registry = registry
        self.cascade = cascade
        self.key_attr = key_attr
        self.maintenance = maintenance
        #: Environment sharding: when set, every hash layer prefixes its
        #: group keys with the row's shard id, giving per-shard sub-index
        #: instances whose answers merge at probe time.  Maintenance
        #: routes through the same keys, so it stays shard-local.
        self.shard_of = shard_of if num_shards > 1 else None
        self.num_shards = num_shards if self.shard_of is not None else 1
        self._compiled: dict[str, _CompiledShape] = {}
        # per-tick caches (retained across ticks under delta maintenance)
        self._env: EnvironmentTable | None = None
        self._div_index: dict[str, PartitionedIndex] = {}
        self._kd_index: dict[str, PartitionedIndex] = {}
        self._row_index: dict[str, PartitionedIndex] = {}
        #: fn name -> {args signature -> sweep result}; an entry's
        #: presence means the function's Figure-9 batch is ready.
        self._batches: dict[str, dict[tuple, object]] = {}
        self._hints: list[tuple[CallHint, list[Mapping[str, object]]]] = []
        # instrumentation: a plain dict to callers, optionally backed by
        # registry counters (bind_metrics) so the decision counters show
        # up in Prometheus exposition without a second bookkeeping path
        self.stats = StatCounters(prefix="evaluator")
        self._bump = self.stats.bump
        self._m_depth_rebuilds = NULL_REGISTRY.gauge("_")

    # -- observability ------------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Back ``stats`` and the index gauges with *registry*."""
        self.stats.bind(registry, "evaluator")
        self._m_depth_rebuilds = registry.gauge("index_depth_rebuilds")

    def index_counters(self) -> dict[str, int]:
        """Live structure counters for the currently retained indexes.

        ``depth_rebuilds`` sums :class:`~repro.indexes.kdtree.KDTree`
        depth-triggered rebuilds over every retained k-d group -- the
        signal that overlay churn is forcing tree reconstruction.
        """
        depth_rebuilds = 0
        kd_groups = 0
        for index in self._kd_index.values():
            for sub in index.groups.values():
                kd_groups += 1
                depth_rebuilds += getattr(sub, "depth_rebuilds", 0)
        counters = {
            "depth_rebuilds": depth_rebuilds,
            "kd_groups": kd_groups,
            "div_indexes": len(self._div_index),
            "row_indexes": len(self._row_index),
        }
        self._m_depth_rebuilds.set(depth_rebuilds)
        return counters

    # -- tick lifecycle ---------------------------------------------------------

    def begin_tick(
        self,
        env: EnvironmentTable,
        hints: Iterable[tuple[CallHint, list[Mapping[str, object]]]] = (),
        delta: TableDelta | None = None,
    ) -> None:
        """Start a tick over *env*; *hints* pair call sites with the unit
        rows that will execute them (used for sweep-line batching).

        *delta* is the engine's change capture against the previous
        tick's environment.  Under ``maintenance="incremental"``/
        ``"auto"`` a usable delta patches the retained index structures
        in place; otherwise (or when ``"auto"`` votes rebuild) all
        structures are discarded and lazily rebuilt on first probe.

        Sweep-line batches are per-tick by default, but under delta
        maintenance a function's batch survives the tick when the delta
        touched neither its source partition (no changed row passes the
        build filter) nor its probe group (same hinted call sites over
        the same, unchanged units) -- the sweep would recompute the
        exact same answers.
        """
        new_hints = list(hints)
        # Sweep-batch retention is decided independently of the
        # structure-maintenance vote: a batch is a pure function of its
        # (unchanged) source rows and probe group, so it stays exact
        # whether the div/kd structures get patched or rebuilt.
        reusable = (
            delta is not None
            and self.maintenance != "rebuild"
            and self._env is not None
        )
        retained = self._retained_batches(delta, new_hints) if reusable else {}
        self._batches = retained
        self._hints = new_hints
        if self._should_apply(delta):
            self._apply_delta(delta)
            self._bump("delta_ticks")
            self._drop_overgrown()
        else:
            discarded = bool(
                self._div_index or self._kd_index or self._row_index
            )
            self._div_index.clear()
            self._kd_index.clear()
            self._row_index.clear()
            if discarded and self.maintenance != "rebuild":
                self._bump("rebuild_ticks")
        self._env = env

    def reshard(
        self,
        shard_of: Callable[[Mapping[str, object]], int] | None,
        num_shards: int,
    ) -> None:
        """Adopt a new shard layout (``num_shards <= 1`` drops to flat).

        Every retained structure and sweep batch is keyed by the old
        layout's shard ids, so all of them are discarded; they rebuild
        lazily on their next probe.  The next ``begin_tick`` must not
        carry a delta captured under the old layout (the engine clears
        its pending capture when it reshards).
        """
        self.shard_of = shard_of if num_shards > 1 else None
        self.num_shards = num_shards if self.shard_of is not None else 1
        self._div_index.clear()
        self._kd_index.clear()
        self._row_index.clear()
        self._batches = {}
        self._hints = []
        self._env = None

    def prepare(self, fn_names: Iterable[str]) -> None:
        """Eagerly build everything the named aggregates probe this tick.

        The engine never calls this -- it keeps build-on-first-probe (a
        tick that never probes an aggregate never pays for its index).
        The method stays because the perf ledger names it as a trace
        target (``benchmarks/ledger/spec.py``); drop both together.
        """
        for name in fn_names:
            fn = self.registry.aggregates.get(name)
            if fn is None or fn.native is not None or fn.spec is None:
                continue
            compiled = self._compiled_shape(fn)
            kind = compiled.shape.kind
            if kind == "divisible":
                self._ensure_div_index(fn, compiled)
            elif kind == "nearest":
                self._ensure_kd_index(fn, compiled)
            elif kind == "extreme":
                if fn.name not in self._batches:
                    self._build_extreme_batches(fn, compiled)
                # dynamic (unhinted) call sites fall back to the scan
                self._ensure_row_index(fn, compiled)
            else:
                self._ensure_row_index(fn, compiled)

    def _should_apply(self, delta: TableDelta | None) -> bool:
        """The rebuild-or-patch decision: patch the retained structures
        with *delta* (true) or discard them and rebuild lazily."""
        if self.maintenance == "rebuild" or delta is None or self._env is None:
            return False
        if not (self._div_index or self._kd_index or self._row_index):
            return False  # nothing retained to maintain
        if self.maintenance == "auto":
            return delta.fraction <= _PATCH_FRACTION
        return True

    def delta_budget(self, new_size: int) -> int:
        """Largest delta (changed rows) "auto" would still patch with.

        A change capture whose only consumer is this evaluator may bail
        out past this many changed rows, since ``_should_apply`` would
        discard the delta anyway.
        """
        return int(_PATCH_FRACTION * new_size)

    # -- sweep-batch reuse across ticks -------------------------------------------

    def _retained_batches(
        self,
        delta: TableDelta,
        new_hints: list[tuple[CallHint, list[Mapping[str, object]]]],
    ) -> dict[str, dict[tuple, object]]:
        """Sweep batches from last tick that stay exact under *delta*.

        A function's batch is retained when (a) no changed row passes its
        build filter, so the source partition that was swept is
        untouched, and (b) its hinted probe group is identical -- same
        call sites over the same unit keys, none of which changed.
        Unchanged units have value-equal rows, and hinted argument terms
        depend only on the unit row and constants, so both the probe
        signatures and the sweep answers are guaranteed to reproduce.
        """
        if not self._batches:
            return {}
        out: dict[str, dict[tuple, object]] = {}
        quiet = delta.changed == 0
        changed_rows = None
        changed_keys: set | None = None
        for name, batch in self._batches.items():
            compiled = self._compiled.get(name)
            if compiled is None:
                continue
            keep = compiled.build_filter
            if not quiet:
                if keep is None:
                    continue  # every row is a source; any change dirties it
                if changed_rows is None:
                    changed_rows = list(delta.inserted) + list(delta.deleted)
                    for old, new in delta.updated:
                        changed_rows.append(old)
                        changed_rows.append(new)
                if any(keep(row) for row in changed_rows):
                    continue
            old_fp = self._probe_fingerprint(name, self._hints)
            new_fp = self._probe_fingerprint(name, new_hints)
            if old_fp != new_fp:
                continue
            if not quiet:
                if changed_keys is None:
                    key_attr = self.key_attr
                    changed_keys = {
                        row[key_attr] for row in changed_rows
                    }
                if changed_keys and any(
                    key in changed_keys
                    for _, keys in new_fp
                    for key in keys
                ):
                    continue
            out[name] = batch
            self._bump("sweep_reuse")
        return out

    def _probe_fingerprint(
        self, name: str, hints: list[tuple[CallHint, list[Mapping[str, object]]]]
    ) -> tuple:
        key_attr = self.key_attr
        return tuple(
            (hint, tuple(u[key_attr] for u in units))
            for hint, units in hints
            if hint.function == name
        )

    def _apply_delta(self, delta: TableDelta) -> None:
        for name, index in self._div_index.items():
            compiled = self._compiled[name]
            self._route_delta(index, compiled, delta, self._div_update)
        for name, index in self._kd_index.items():
            compiled = self._compiled[name]
            self._route_delta(
                index,
                compiled,
                delta,
                lambda idx, old, new, c=compiled: self._kd_update(
                    idx, c.shape, old, new
                ),
            )
        for name, index in self._row_index.items():
            compiled = self._compiled[name]
            self._route_delta(index, compiled, delta, PartitionedIndex.update)

    @staticmethod
    def _route_delta(
        index: PartitionedIndex, compiled: _CompiledShape, delta: TableDelta, update
    ) -> None:
        """Filter delta rows through the structure's build predicate and
        dispatch them to the hash layer's insert/delete/update paths."""
        keep = compiled.build_filter
        for row in delta.inserted:
            if keep is None or keep(row):
                index.insert(row)
        for row in delta.deleted:
            if keep is None or keep(row):
                index.delete(row)
        for old, new in delta.updated:
            old_in = keep is None or keep(old)
            new_in = keep is None or keep(new)
            if old_in and new_in:
                update(index, old, new)
            elif old_in:
                index.delete(old)
            elif new_in:
                index.insert(new)

    @staticmethod
    def _div_update(index: PartitionedIndex, old, new) -> None:
        """In-group update: evaluate each measure once per row, and skip
        entirely when the update cannot move the divisible aggregates
        (e.g. only a cooldown ticked under a position/health index)."""
        old_key = index._cat_key(old)
        if old_key == index._cat_key(new):
            group = index.probe(old_key)
            if group is not None:
                old_values = group.values_of(old)
                new_values = group.values_of(new)
                if old_values == new_values and all(
                    old[a] == new[a] for a in group.range_attrs
                ):
                    return
                group.delete(old, old_values)
                group.insert(new, new_values)
                return
        index.update(old, new)

    def _kd_update(self, index: PartitionedIndex, shape, old, new) -> None:
        """Replace the stored row in place when the position held still.

        The kD-tree stores the row dicts themselves (probes return them
        as records), so even a position-preserving update must swap in
        the fresh row object -- other attributes may have changed.
        """
        ax, ay = shape.nearest_attrs
        old_key = index._cat_key(old)
        if (
            old_key == index._cat_key(new)
            and old[ax] == new[ax]
            and old[ay] == new[ay]
        ):
            tree = index.probe(old_key)
            row_key = old[self.key_attr]
            if tree is not None and tree.replace_item(
                (old[ax], old[ay]),
                lambda item: item[self.key_attr] == row_key,
                new,
            ):
                return
        index.update(old, new)

    def _drop_overgrown(self) -> None:
        """Discard structures whose overlay/tombstone weight outgrew the
        budget; they rebuild lazily on their next probe.

        Divisible indexes are gauged by *live* overlay weight -- changes
        that the structure absorbed exactly (zero-dim totals, cancelled
        insert/delete pairs) cost queries nothing and must not force
        rebuilds at sustained low churn.  kD-trees are gauged by the
        cumulative mutation count, since tombstones and unbalanced
        dynamic leaves accumulate structurally even when they cancel
        logically.
        """
        gauges = (
            (
                self._div_index,
                lambda index: sum(
                    group.overlay_size for group in index.groups.values()
                ),
            ),
            (self._kd_index, lambda index: index.mutations),
        )
        for indexes, weigh in gauges:
            for name in [
                name
                for name, index in indexes.items()
                if weigh(index)
                > max(_OVERLAY_MIN, int(_OVERLAY_BUDGET * len(index)))
            ]:
                del indexes[name]
                self._bump("overlay_rebuilds")

    # -- static compilation -------------------------------------------------------

    def _compiled_shape(self, fn: AggregateFunction) -> _CompiledShape:
        cached = self._compiled.get(fn.name)
        if cached is not None:
            return cached
        shape = classify_aggregate(fn.spec)
        probe = Probe(shape, fn.params, self.registry)
        compiled = _CompiledShape(shape=shape, probe=probe)
        per_row = row_scope(self.registry.constants)
        compiled.build_filter = compile_filter(shape.e_only, per_row)
        if shape.kind == "divisible":
            slot = 0
            for output in shape.outputs:
                if output.term is None:
                    compiled.measure_slot.append(None)
                else:
                    compiled.measures.append(
                        compile_term(output.term, per_row)
                    )
                    compiled.measure_slot.append(slot)
                    slot += 1
        elif shape.kind == "extreme":
            compiled.value_fn = compile_term(shape.extreme_value, per_row)
        elif shape.kind == "nearest":
            cx, cy = shape.nearest_centers
            compiled.centers = (
                compile_term(cx, probe.scope),
                compile_term(cy, probe.scope),
            )
            compiled.residual = compile_filter(shape.residual, probe.scope)
        self._compiled[fn.name] = compiled
        return compiled

    # -- the AggregateEvaluator protocol --------------------------------------------

    def evaluate(
        self, function: AggregateFunction, args: list[object], ctx: EvalContext
    ) -> object:
        if function.native is not None:
            self._bump("native")
            return function.native(args, ctx.env.rows, ctx)

        compiled = self._compiled_shape(function)
        shape = compiled.shape
        f = [ctx, *args, None]  # the probe frame
        guard = compiled.probe.guard
        if guard is not None and not guard(f):
            return empty_aggregate_result(shape.outputs)
        kind = shape.kind
        if kind == "divisible":
            return self._eval_divisible(function, compiled, f)
        if kind == "nearest":
            return self._eval_nearest(function, compiled, f)
        if kind == "extreme":
            result = self._eval_extreme(function, compiled, args)
            if result is not NotImplemented:
                return result
        return self._eval_fallback(function, compiled, args, f)

    # -- shared probe helpers ---------------------------------------------------

    @staticmethod
    def _group_matches(key: tuple, eq_vals: tuple, neq_vals: tuple) -> bool:
        ne = len(eq_vals)
        if key[:ne] != eq_vals:
            return False
        for i, value in enumerate(neq_vals, ne):
            if key[i] == value:
                return False
        return True

    def _matching_groups(
        self, index: PartitionedIndex, compiled: _CompiledShape, f: list
    ) -> list:
        """Sub-indexes matching the probe's category constraints.

        With sharding active every logical category group is split into
        per-shard instances; probes walk shards in ascending id so the
        cross-shard answer merge (moments, nearest candidates, row
        concatenation) happens in one deterministic order.
        """
        eq_vals, neq_vals = compiled.probe.cats(f)
        if self.shard_of is not None:
            if not neq_vals:
                groups = []
                for shard in range(self.num_shards):
                    group = index.probe((shard,) + eq_vals)
                    if group is not None:
                        groups.append(group)
                return groups
            return [
                group
                for key, group in index.groups.items()
                if self._group_matches(key[1:], eq_vals, neq_vals)
            ]
        if not neq_vals:
            group = index.probe(eq_vals)
            return [group] if group is not None else []
        return [
            group
            for key, group in index.groups.items()
            if self._group_matches(key, eq_vals, neq_vals)
        ]

    # -- divisible aggregates (Figure 8) -----------------------------------------

    def _ensure_div_index(
        self, fn: AggregateFunction, compiled: _CompiledShape
    ) -> PartitionedIndex:
        index = self._div_index.get(fn.name)
        if index is None:
            self._bump("build_divisible")
            shape = compiled.shape
            rows = self._filtered_rows(compiled)
            index = PartitionedIndex(
                rows,
                shape.cat_attrs,
                factory=lambda group: GroupAggIndex(
                    group,
                    shape.range_attrs,
                    compiled.measures,
                    cascade=self.cascade,
                ),
                row_insert=GroupAggIndex.insert,
                row_delete=GroupAggIndex.delete,
                shard_of=self.shard_of,
            )
            self._div_index[fn.name] = index
        return index

    def _eval_divisible(
        self, fn: AggregateFunction, compiled: _CompiledShape, f: list
    ) -> object:
        shape = compiled.shape
        index = self._ensure_div_index(fn, compiled)
        self._bump("probe_divisible")

        groups = self._matching_groups(index, compiled, f)
        if not groups:
            return empty_aggregate_result(shape.outputs)
        bounds = compiled.probe.bounds(f)
        if bounds is None:
            return empty_aggregate_result(shape.outputs)

        # merge per-group moments (divisibility makes this exact)
        merged = None
        for group in groups:
            moments = group.query(bounds)
            merged = (
                moments
                if merged is None
                else tuple(a.merge(b) for a, b in zip(merged, moments))
            )

        values = []
        for output, slot in zip(shape.outputs, compiled.measure_slot):
            if output.agg == "count":
                values.append(merged[0].count)
            else:
                values.append(merged[slot].finalize(output.agg))
        return finalize_outputs(shape.outputs, values)

    # -- nearest neighbour (Section 5.3.2) ----------------------------------------

    def _ensure_kd_index(
        self, fn: AggregateFunction, compiled: _CompiledShape
    ) -> PartitionedIndex:
        index = self._kd_index.get(fn.name)
        if index is None:
            self._bump("build_kdtree")
            shape = compiled.shape
            rows = self._filtered_rows(compiled)
            ax, ay = shape.nearest_attrs
            key_attr = self.key_attr

            def kd_insert(tree: KDTree, row) -> None:
                tree.insert((row[ax], row[ay]), row)

            def kd_delete(tree: KDTree, row) -> None:
                row_key = row[key_attr]
                if not tree.delete(
                    (row[ax], row[ay]),
                    lambda item: item[key_attr] == row_key,
                ):
                    raise KeyError(f"row {row_key!r} not in kd-tree")

            index = PartitionedIndex(
                rows,
                shape.cat_attrs,
                factory=lambda group: KDTree(
                    [(r[ax], r[ay]) for r in group], group
                ),
                row_insert=kd_insert,
                row_delete=kd_delete,
                shard_of=self.shard_of,
            )
            self._kd_index[fn.name] = index
        return index

    def _eval_nearest(
        self, fn: AggregateFunction, compiled: _CompiledShape, f: list
    ) -> object:
        """Best accepted point over the matching trees, ``(dist², key)``
        tie-broken; ``None`` when nothing matches."""
        index = self._ensure_kd_index(fn, compiled)
        self._bump("probe_kdtree")

        groups = self._matching_groups(index, compiled, f)
        cx, cy = compiled.centers
        center = (float(cx(f)), float(cy(f)))
        bounds = compiled.probe.bounds(f)
        if bounds is None:
            return None
        predicate = self._row_predicate(compiled, bounds, f)
        exclude = (
            None if predicate is None else (lambda row: not predicate(row))
        )
        key_attr = self.key_attr
        tie_key = lambda row: row[key_attr]  # noqa: E731

        best_row = None
        best = (_INF, None)
        for tree in groups:
            found = tree.nearest(center, exclude=exclude, tie_key=tie_key)
            if found is None:
                continue
            row, dist_sq = found
            candidate = (dist_sq, row[key_attr])
            if best_row is None or candidate < best:
                best_row, best = row, candidate
        if best_row is None:
            return None
        return Record(best_row) if compiled.shape.returns_row else best[0]

    @staticmethod
    def _row_predicate(compiled: _CompiledShape, bounds, f: list):
        """Residual + range predicate for kD-tree candidate filtering."""
        checks = []
        if bounds:
            range_attrs = compiled.shape.range_attrs
            checks.append(
                lambda row: all(
                    lo <= row[attr] <= hi
                    for attr, (lo, hi) in zip(range_attrs, bounds)
                )
            )
        residual = compiled.residual
        if residual is not None:
            e_slot = compiled.probe.e_slot

            def residual_check(row):
                f[e_slot] = row
                return residual(f)

            checks.append(residual_check)
        if not checks:
            return None
        if len(checks) == 1:
            return checks[0]
        return lambda row: all(c(row) for c in checks)

    # -- extreme aggregates: sweep-line batches (Figure 9) -------------------------

    def _eval_extreme(
        self, fn: AggregateFunction, compiled: _CompiledShape, args: list[object]
    ) -> object:
        batch = self._batches.get(fn.name)
        if batch is None:
            batch = self._build_extreme_batches(fn, compiled)
        signature = _args_signature(args, self.key_attr)
        if signature in batch:
            self._bump("probe_sweep")
            result = batch[signature]
            if result is None:
                return None
            value, row = result
            return Record(row) if compiled.shape.returns_row else value
        self._bump("sweep_miss")
        return NotImplemented  # dynamic args: caller falls back to scan

    def _build_extreme_batches(
        self, fn: AggregateFunction, compiled: _CompiledShape
    ) -> dict[tuple, object]:
        """Run the Figure-9 sweeps for every hinted call site of *fn*.

        Probes are grouped by (category values, range extents); each
        group with constant extents gets one sweep per source partition
        (per shard when sharding is active), and per-probe results merge
        across the partitions its eq/neq constraints select via
        ``(value, key)`` candidates, so the merge order -- and therefore
        the shard count -- can never change an answer.
        """
        batch: dict[tuple, object] = {}
        self._batches[fn.name] = batch
        self._bump("build_sweep")
        shape = compiled.shape
        key_attr = self.key_attr
        shard_of = self.shard_of

        sources = self._filtered_rows(compiled)
        partitions: dict[tuple, list] = {}
        for row in sources:
            key = tuple(row[a] for a in shape.cat_attrs)
            if shard_of is not None:
                key = (shard_of(row),) + key
            partitions.setdefault(key, []).append(row)

        ax, ay = shape.range_attrs  # classifier guarantees exactly 2 dims
        value_fn = compiled.value_fn
        part_data = {
            key: (
                [(r[ax], r[ay]) for r in rows],
                [value_fn(r) for r in rows],
                [r[key_attr] for r in rows],
                {r[key_attr]: r for r in rows},
            )
            for key, rows in partitions.items()
        }

        # collect probes per (eq_vals, neq_vals, extents) group
        groups: dict[tuple, list] = {}
        probe = compiled.probe
        rt = EvalContext(
            env=self._env,
            registry=self.registry,
            agg_eval=self,
            rng=_no_random,
            unit=None,
        )
        for hint, units in self._hints:
            if hint.function != fn.name:
                continue
            args_of = compile_args(
                hint.arg_terms, frame_scope((hint.unit_param,), self.registry)
            )
            for unit in units:
                rt.unit = unit
                arg_values = args_of([rt, unit])
                f = [rt, *arg_values, None]
                signature = _args_signature(arg_values, key_attr)
                if probe.guard is not None and not probe.guard(f):
                    # u-only predicate failed: empty selection
                    batch[signature] = None
                    continue
                bounds = probe.bounds(f)
                if bounds is None:
                    batch[signature] = None
                    continue
                (xlo, xhi), (ylo, yhi) = bounds
                rx = (xhi - xlo) / 2.0
                ry = (yhi - ylo) / 2.0
                center = ((xlo + xhi) / 2.0, (ylo + yhi) / 2.0)
                eq_vals, neq_vals = probe.cats(f)
                group_key = (eq_vals, neq_vals, round(rx, 9), round(ry, 9))
                groups.setdefault(group_key, []).append((signature, center))

        kind = shape.extreme_kind
        sharded = shard_of is not None
        for (eq_vals, neq_vals, rx, ry), probes in groups.items():
            centers = [c for _, c in probes]
            merged: list = [None] * len(probes)
            for part_key, (xy, values, keys, by_key) in part_data.items():
                cat_key = part_key[1:] if sharded else part_key
                if not self._group_matches(cat_key, eq_vals, neq_vals):
                    continue
                results = sweep_arg_minmax(
                    xy, values, keys, centers, rx, ry, kind
                )
                for i, res in enumerate(results):
                    if res is None:
                        continue
                    value, key = res
                    candidate = (value, key) if kind == "min" else (-value, key)
                    if merged[i] is None or candidate < merged[i][0]:
                        merged[i] = (candidate, by_key[key])
            for (signature, _), entry in zip(probes, merged):
                if entry is None:
                    batch[signature] = None
                else:
                    (ordered_value, _), row = entry
                    value = ordered_value if kind == "min" else -ordered_value
                    batch[signature] = (value, row)
        return batch

    # -- fallback: partitioned scan -------------------------------------------------

    def _ensure_row_index(
        self, fn: AggregateFunction, compiled: _CompiledShape
    ) -> PartitionedIndex:
        index = self._row_index.get(fn.name)
        if index is None:
            self._bump("build_rows")
            rows = self._filtered_rows(compiled)
            index = PartitionedIndex(
                rows,
                compiled.shape.cat_attrs,
                factory=list,
                shard_of=self.shard_of,
            )
            self._row_index[fn.name] = index
        return index

    def _eval_fallback(
        self,
        fn: AggregateFunction,
        compiled: _CompiledShape,
        args: Sequence[object],
        f: list,
    ) -> object:
        index = self._ensure_row_index(fn, compiled)
        self._bump("probe_scan")
        groups = self._matching_groups(index, compiled, f)
        if not groups:
            return empty_aggregate_result(compiled.shape.outputs)
        rows: list = []
        for group in groups:
            rows.extend(group)
        return evaluate_aggregate_scan(
            fn.spec, dict(zip(fn.params, args)), rows, f[0]
        )

    def _filtered_rows(self, compiled: _CompiledShape) -> list:
        rows = self._env.rows
        if compiled.build_filter is None:
            return rows
        build_filter = compiled.build_filter
        return [row for row in rows if build_filter(row)]


def _args_signature(args: Sequence[object], key_attr: str) -> tuple:
    """Hashable signature of aggregate-call arguments.

    Unit rows are identified by their key; vectors by their components.
    """
    out = []
    for arg in args:
        if isinstance(arg, Mapping):
            out.append(("row", arg[key_attr]))
        elif hasattr(arg, "items") and not isinstance(arg, (str, bytes)):
            out.append(("vec", tuple(arg.items)))
        else:
            out.append(arg)
    return tuple(out)


def _no_random(row: Mapping[str, object], i: int) -> int:
    raise RuntimeError(
        "Random is not available while precomputing sweep batches; "
        "hinted call arguments must be deterministic unit terms"
    )


def collect_call_hints(analysis, script_unit_param_by_fn=None) -> list[CallHint]:
    """Derive :class:`CallHint` objects from a script analysis.

    A call site qualifies when every argument term references only the
    enclosing function's unit parameter and registry constants -- i.e.
    the arguments are computable before the decision phase runs.
    """
    from ..algebra.shapes import names_in, refs_random

    hints = []
    for call in analysis.aggregate_calls:
        unit_param = (
            script_unit_param_by_fn.get(call.enclosing, "u")
            if script_unit_param_by_fn
            else "u"
        )
        ok = True
        for term in call.args:
            names = names_in(term)
            if not (names <= {unit_param} or all(n.startswith("_") or n == unit_param for n in names)):
                ok = False
                break
            if refs_random(term):
                ok = False
                break
        if ok:
            hints.append(
                CallHint(
                    function=call.function,
                    unit_param=unit_param,
                    arg_terms=call.args,
                )
            )
    return hints
