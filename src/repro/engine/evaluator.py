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
  divisible  hash layers (eq/neq cats) → per group a cell grid over 2
             range attrs (the Figure-8 prefix-aggregate tree instead
             where the group's data crowd a cell), a 1-d prefix array
             or totals; one index per *selection*, shared by every
             function over it
  nearest    hash layers → kD-tree, residual conjuncts as search predicates
  extreme    Figure-9 sweeps over each call-site batch, grouped by extents
  fallback   hash layers → partitioned row scan
  ========== ==============================================================

  A divisible index depends only on its selection -- the e-only filter,
  the category attributes and the range attributes -- so functions that
  select the same rows share it, as the paper combines "these aggregates
  into one index structure by replacing the list of aggregates with a
  list of aggregate tuples".  The index carries each distinct measure
  term of its readers once, and a ``Σv²`` column only for the measures
  some reader finalizes as var/stddev; each function reads its outputs
  through a slot map.  A function joins its selection's layout when it
  is first evaluated -- registered or not (a spectator query compiled
  from source) -- so an index carries only what some caller has read;
  a function that adds a measure or a ``Σv²`` column drops the retained
  index once, for a lazy rebuild.

  The paper rebuilds indexes from scratch every tick for
  rapidly-changing data ("we are still likely to see significant
  performance gains even if, at each clock tick, we discard the index
  and build a new one from scratch"), and so does this evaluator, for
  every caller (serial engine, process worker, spectator replica):
  :meth:`IndexedEvaluator.begin_tick` drops every retained structure,
  and each rebuilds lazily on its first probe (or through
  :meth:`IndexedEvaluator.prepare`).  Sweeps answer the probes of one
  call-site batch and are never retained.

  Calls arrive set-at-a-time: :meth:`IndexedEvaluator.evaluate_batch`
  answers one call site for a whole batch of units (the decision stage
  sends one batch per call site, :mod:`repro.engine.compile`), resolving
  the shape, the index and each distinct category group once;
  :meth:`IndexedEvaluator.evaluate` is a batch of one.

  Every index spans all of ``E``, keyed by category values only (the
  paper's hash layers over player and unit type, Section 5.3.1).  The
  engine's shard layout decides which units' calls arrive in one batch,
  never how an index is laid out, so an evaluator knows nothing of
  shards.

Both evaluators return *identical* results -- including argmin/argmax
tie-breaks -- which the equivalence tests assert on random battles.
One caveat: an index sums measure contributions in a different order
than the naive scan (a cell grid sums rows, a tree differences
prefixes), so the two agree exactly only when the measure sums are
exact in floating point (always true for integer-valued measures, like
every measure in the battle simulation).  Two indexed evaluators over
the same rows build the same structures, so they always agree bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..algebra.shapes import AggregateShape, classify_aggregate
from ..env.table import EnvironmentTable
from ..indexes.composite import GroupAggIndex
from ..indexes.hash_layer import PartitionedIndex, key_getter
from ..indexes.kdtree import KDTree
from ..indexes.sweepline import sweep_arg_minmax
from ..obs import NULL_REGISTRY, StatCounters
from ..sgl.builtins import AggregateFunction, FunctionRegistry
from ..sgl.evalterm import EvalContext
from ..sgl.interp import NaiveAggregateEvaluator
from ..sgl.sqlspec import AggOutput, evaluate_aggregate_scan, finalize_outputs
from ..sgl.values import Record
from .compile import SCAN, Fn, Probe, compile_filter, compile_term, row_scope

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


@dataclass
class _Selection:
    """The layout of one shared divisible index: its readers' distinct
    measure terms, their emitted row functions, and which keep ``Σv²``."""

    build_filter: Fn | None  # e-only conjuncts
    terms: list = field(default_factory=list)
    measures: list = field(default_factory=list)  # row Fn per term
    squares: list = field(default_factory=list)  # per term: var/stddev read


@dataclass
class _CompiledShape:
    """Per-aggregate static compilation artefacts: emitted row-frame
    functions run per environment row at index build, probe-frame ones
    per call."""

    shape: AggregateShape
    probe: Probe
    selection: tuple = ()  # divisible: key of the shared index
    measure_slot: list = field(default_factory=list)  # output idx -> slot/None
    count_only: bool = False  # divisible: reads no measure of the index
    build_filter: Fn | None = None  # e-only conjuncts
    value_fn: Fn | None = None  # extreme value term
    centers: tuple[Fn, Fn] | None = None  # nearest: the probe point
    residual: Fn | None = None  # nearest: per-candidate conjuncts


#: "Not computed yet" marker for per-batch answer caches.
_MISSING = object()


class IndexedEvaluator:
    """Index-backed aggregate evaluation.

    Every tick rebuilds each index it probes from scratch, the paper's
    strategy -- see :meth:`begin_tick` and the module docstring.
    """

    def __init__(self, registry: FunctionRegistry, *, key_attr: str = "key"):
        self.registry = registry
        self.key_attr = key_attr
        self._compiled: dict[str, _CompiledShape] = {}
        #: selection key -> the layout of its shared divisible index
        self._selections: dict[tuple, _Selection] = {}
        # per-tick caches, dropped by begin_tick
        self._env: EnvironmentTable | None = None
        #: selection key -> divisible index (see :meth:`_join_selection`)
        self._div_index: dict[tuple, PartitionedIndex] = {}
        self._kd_index: dict[str, PartitionedIndex] = {}
        self._row_index: dict[str, PartitionedIndex] = {}
        #: fn name -> {partition key -> sweep source columns}; built once
        #: per function per tick, shared by every batch that sweeps it.
        self._sweep_parts: dict[str, dict[tuple, tuple]] = {}
        #: shape kind -> ``(fn, compiled, probe frames) -> answers``
        self._strategies = {
            "divisible": self._eval_divisible,
            "nearest": self._eval_nearest,
            "extreme": self._eval_extreme,
            "fallback": self._eval_fallback,
        }
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

        ``grid_groups``/``tree_groups`` count the 2-d divisible groups
        holding a cell grid / a Figure-8 tree.  ``depth_rebuilds`` sums
        :class:`~repro.indexes.kdtree.KDTree` depth-triggered rebuilds
        over every retained k-d group; trees built fresh each tick take
        none, so it reads 0.
        """
        depth_rebuilds = 0
        kd_groups = 0
        for index in self._kd_index.values():
            for sub in index.groups.values():
                kd_groups += 1
                depth_rebuilds += getattr(sub, "depth_rebuilds", 0)
        grid_groups = tree_groups = 0
        for index in self._div_index.values():
            for group in index.groups.values():
                if len(group.range_attrs) == 2:
                    grid_groups += group.on_grid
                    tree_groups += not group.on_grid
        counters = {
            "depth_rebuilds": depth_rebuilds,
            "kd_groups": kd_groups,
            "div_indexes": len(self._div_index),
            "grid_groups": grid_groups,
            "tree_groups": tree_groups,
            "row_indexes": len(self._row_index),
        }
        self._m_depth_rebuilds.set(depth_rebuilds)
        return counters

    # -- tick lifecycle ---------------------------------------------------------

    def begin_tick(self, env: EnvironmentTable) -> None:
        """Start a tick over *env*: drop every retained structure; each
        rebuilds lazily on its first probe (or through :meth:`prepare`)."""
        if self._div_index or self._kd_index or self._row_index:
            self._bump("rebuild_ticks")
        self._div_index.clear()
        self._kd_index.clear()
        self._row_index.clear()
        self._sweep_parts = {}
        self._env = env

    def prepare(self, functions: Iterable[AggregateFunction]) -> None:
        """Eagerly build everything *functions* probe over this state.

        The decision stage never calls this -- it keeps
        build-on-first-probe (a tick that never probes an aggregate
        never pays for its index).  A spectator's
        :class:`~repro.serve.queries.QueryEngine` calls it when it
        adopts a state, with the aggregates the previous state's
        queries probed; the rebuild ablation
        (``benchmarks/bench_ablation_rebuild.py``) times it.
        """
        for fn in functions:
            if fn.native is not None or fn.spec is None:
                continue
            compiled = self._compiled_shape(fn)
            kind = compiled.shape.kind
            if kind == "divisible":
                self._ensure_div_index(compiled)
            elif kind == "nearest":
                self._ensure_kd_index(fn, compiled)
            elif kind == "extreme":
                self._sweep_partitions(fn, compiled)
            else:
                self._ensure_row_index(fn, compiled)

    # -- static compilation -------------------------------------------------------

    def _compiled_shape(self, fn: AggregateFunction) -> _CompiledShape:
        cached = self._compiled.get(fn.name)
        if cached is not None:
            return cached
        shape = classify_aggregate(fn.spec)
        nearest = shape.kind == "nearest"
        extra = (*shape.nearest_centers, shape.residual) if nearest else ()
        probe = Probe(shape, fn.params, self.registry, extra)
        compiled = _CompiledShape(shape=shape, probe=probe)
        per_row = row_scope(self.registry.constants)
        compiled.build_filter = compile_filter(shape.e_only, per_row)
        if shape.kind == "divisible":
            compiled.selection, compiled.measure_slot = self._join_selection(
                shape
            )
            compiled.count_only = all(o.agg == "count" for o in shape.outputs)
        elif shape.kind == "extreme":
            compiled.value_fn = compile_term(shape.extreme_value, per_row)
        elif nearest:
            cx, cy, compiled.residual = probe.fns
            compiled.centers = (cx, cy)
        self._compiled[fn.name] = compiled
        return compiled

    def forget(self, name: str) -> None:
        """Drop function *name*'s compiled shape and structures.  Its
        selection is laid out anew for the functions still reading it,
        or dropped when none does."""
        compiled = self._compiled.pop(name, None)
        self._kd_index.pop(name, None)
        self._row_index.pop(name, None)
        self._sweep_parts.pop(name, None)
        if compiled is None or not compiled.selection:
            return
        key = compiled.selection
        self._selections.pop(key, None)
        self._div_index.pop(key, None)
        for other in self._compiled.values():
            if other.selection == key:
                other.selection, other.measure_slot = self._join_selection(
                    other.shape
                )

    # -- the AggregateEvaluator protocol --------------------------------------------

    def evaluate(
        self, function: AggregateFunction, args: list[object], ctx: EvalContext
    ) -> object:
        """One call: a batch of one (:meth:`evaluate_batch`)."""
        return self.evaluate_batch(function, [args], [ctx])[0]

    def evaluate_batch(
        self,
        function: AggregateFunction,
        arg_rows: list[list[object]],
        ctxs: list[EvalContext],
    ) -> list[object]:
        """Answer one call site for a batch: ``arg_rows[i]`` are the
        arguments of call *i*, made under its unit's context ``ctxs[i]``
        (what ``Random(i)``, native functions and the scan fallback
        read).  Shape, index and counters are resolved once per batch,
        category groups once per distinct key."""
        if function.native is not None:
            self._bump("native", len(arg_rows))
            return [
                function.native(args, ctx.env.rows, ctx)
                for args, ctx in zip(arg_rows, ctxs)
            ]
        compiled = self._compiled_shape(function)
        frames = [[ctx, *args, None] for args, ctx in zip(arg_rows, ctxs)]
        evaluate = self._strategies[compiled.shape.kind]
        guard = compiled.probe.guard
        if guard is None:
            return evaluate(function, compiled, frames)
        # frames whose u-only conjuncts fail select nothing
        empty = empty_aggregate_result(compiled.shape.outputs)
        passed = [bool(guard(f)) for f in frames]
        live = [f for f, ok in zip(frames, passed) if ok]
        answers = iter(evaluate(function, compiled, live) if live else ())
        return [next(answers) if ok else empty for ok in passed]

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

    @staticmethod
    def _has_null(eq_vals: tuple, neq_vals: tuple) -> bool:
        """A NULL category value compares false with every row (``=``
        and ``<>`` alike), so its probe selects nothing."""
        return None in eq_vals or None in neq_vals

    def _matching_groups(
        self, index: PartitionedIndex, eq_vals: tuple, neq_vals: tuple
    ) -> list:
        """Sub-indexes matching the probe's category constraints."""
        if self._has_null(eq_vals, neq_vals):
            return []
        if not neq_vals:
            group = index.probe(eq_vals)
            return [group] if group is not None else []
        return [
            group
            for key, group in index.groups.items()
            if self._group_matches(key, eq_vals, neq_vals)
        ]

    def _groups_by_cats(
        self, index: PartitionedIndex, compiled: _CompiledShape, frames: list
    ) -> list[list]:
        """Each frame's matching sub-indexes, resolved once per distinct
        ``(eq_vals, neq_vals)`` key of the batch."""
        found: dict[tuple, list] = {}
        out = []
        for key in compiled.probe.cats(frames):
            groups = found.get(key)
            if groups is None:
                groups = found[key] = self._matching_groups(index, *key)
            out.append(groups)
        return out

    # -- divisible aggregates (Figure 8) -----------------------------------------

    def _join_selection(self, shape: AggregateShape) -> tuple[tuple, list]:
        """Add *shape*'s outputs to the layout of its selection's shared
        index; returns the selection key and the output -> measure slot
        map (``None`` for ``Count(*)``).  A layout that gains a measure
        or a ``Σv²`` column drops its index, which rebuilds lazily."""
        key = (shape.e_only, shape.cat_attrs, shape.range_attrs)
        per_row = row_scope(self.registry.constants)
        selection = self._selections.get(key)
        if selection is None:
            selection = self._selections[key] = _Selection(
                compile_filter(shape.e_only, per_row)
            )
        widened = False
        slots: list = []
        for output in shape.outputs:
            if output.term is None:
                slots.append(None)
                continue
            if output.term in selection.terms:
                slot = selection.terms.index(output.term)
            else:
                slot = len(selection.terms)
                selection.terms.append(output.term)
                selection.measures.append(compile_term(output.term, per_row))
                selection.squares.append(False)
                widened = True
            if output.agg in ("var", "stddev") and not selection.squares[slot]:
                selection.squares[slot] = True
                widened = True
            slots.append(slot)
        if widened:
            self._div_index.pop(key, None)
        return key, slots

    def _ensure_div_index(self, compiled: _CompiledShape) -> PartitionedIndex:
        key = compiled.selection
        index = self._div_index.get(key)
        if index is None:
            self._bump("build_divisible")
            range_attrs = compiled.shape.range_attrs
            selection = self._selections[key]
            measures = tuple(selection.measures)
            squares = tuple(selection.squares)

            def build_group(rows: list) -> GroupAggIndex:
                group = GroupAggIndex(rows, range_attrs, measures, squares=squares)
                if len(range_attrs) == 2 and not group.on_grid:
                    self._bump("build_tree")  # the group's data crowd a cell
                return group

            try:
                index = PartitionedIndex(
                    self._filtered_rows(compiled),  # the selection's e-only filter
                    compiled.shape.cat_attrs,
                    factory=build_group,
                )
            except Exception:
                # a measure failing on some row fails the calls that read
                # it, not every later reader of the shared index: forget
                # the layout, and each reader joins a fresh one
                del self._selections[key]
                for name in [
                    name for name, c in self._compiled.items() if c.selection == key
                ]:
                    del self._compiled[name]
                raise
            self._div_index[key] = index
        return index

    def _eval_divisible(
        self, fn: AggregateFunction, compiled: _CompiledShape, frames: list
    ) -> list:
        shape = compiled.shape
        index = self._ensure_div_index(compiled)
        self._bump("probe_divisible", len(frames))
        empty = empty_aggregate_result(shape.outputs)
        if not shape.ranges:
            # no range constraint: the category key alone decides the
            # answer, so compute it once per distinct key
            answers: dict[tuple, object] = {}
            out = []
            for key in compiled.probe.cats(frames):
                answer = answers.get(key, _MISSING)
                if answer is _MISSING:
                    groups = self._matching_groups(index, *key)
                    answer = answers[key] = (
                        self._divisible_answer(compiled, groups, ())
                        if groups
                        else empty
                    )
                out.append(answer)
            return out
        groups_of = self._groups_by_cats(index, compiled, frames)
        probed = on_grid = 0  # 2-d group probes, and those a grid answers
        planar = len(shape.range_attrs) == 2
        out = []
        for f, groups, bounds in zip(
            frames, groups_of, compiled.probe.bounds(frames)
        ):
            # a bound the index cannot compare is the scan's to answer,
            # even where no group matches: the oracle may still raise
            if bounds is SCAN:
                out.append(self._scan(fn, f))
                continue
            if not groups or bounds is None:
                out.append(empty)
                continue
            if planar:
                probed += len(groups)
                for group in groups:
                    on_grid += group.on_grid
            out.append(self._divisible_answer(compiled, groups, bounds))
        if on_grid:
            self._bump("probe_grid", on_grid)
        if probed > on_grid:
            self._bump("probe_tree", probed - on_grid)
        return out

    @staticmethod
    def _divisible_answer(
        compiled: _CompiledShape, groups: list, bounds
    ) -> object:
        """Merge the groups' moments over *bounds* and finalize them
        (divisibility makes the per-group merge exact).  A count-only
        reader of a shared index sums none of its measure columns."""
        shape = compiled.shape
        if compiled.count_only:
            count = 0
            for group in groups:
                count += group.count(bounds)
            outputs = shape.outputs  # one output is the count itself
            return count if len(outputs) == 1 else finalize_outputs(
                outputs, [count] * len(outputs)
            )
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
            index = PartitionedIndex(
                rows,
                shape.cat_attrs,
                factory=lambda group: KDTree(
                    [(r[ax], r[ay]) for r in group], group
                ),
            )
            self._kd_index[fn.name] = index
        return index

    def _eval_nearest(
        self, fn: AggregateFunction, compiled: _CompiledShape, frames: list
    ) -> list:
        """Per frame, the best accepted point over the matching trees,
        ``(dist², key)`` tie-broken; ``None`` when nothing matches."""
        index = self._ensure_kd_index(fn, compiled)
        self._bump("probe_kdtree", len(frames))
        cx, cy = compiled.centers
        probe = compiled.probe
        key_attr = self.key_attr
        tie_key = lambda row: row[key_attr]  # noqa: E731
        returns_row = compiled.shape.returns_row
        groups_of = self._groups_by_cats(index, compiled, frames)
        centers: list = []
        for f in frames:
            x, y = cx(f), cy(f)
            # every distance NULL or NaN: the reference scan's comparisons,
            # not distance order, pick the row
            scan = x is None or y is None or x != x or y != y
            centers.append(None if scan else (float(x), float(y)))
        # bounds only for frames that search a tree, as one call would
        live = [f for f, center in zip(frames, centers) if center is not None]
        bounds_of = iter(probe.bounds(live))
        out: list = []
        for f, groups, center in zip(frames, groups_of, centers):
            bounds = None if center is None else next(bounds_of)
            if center is None or bounds is SCAN:
                out.append(self._scan(fn, f))
                continue
            if bounds is None:
                out.append(None)
                continue
            predicate = self._row_predicate(compiled, bounds, f)
            exclude = (
                None if predicate is None else (lambda row: not predicate(row))
            )
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
                out.append(None)
            else:
                out.append(Record(best_row) if returns_row else best[0])
        return out

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
        self, fn: AggregateFunction, compiled: _CompiledShape, frames: list
    ) -> list:
        """Run the Figure-9 sweeps for exactly this batch's probes.

        Probes are grouped by (category values, range extents); each
        group gets one sweep per category partition it matches, and
        per-probe results merge across those partitions via ``(value,
        key)`` candidates, so the merge order can never change an
        answer.  Every probe is swept against its own bounds, the box
        the naive selection tests; the extents only group probes so
        that each sweep's window moves monotonically.  Even a group of
        one probe sweeps: against the partitioned scan, one ``WeakestEnemyInRange`` probe costs 1.65
        vs 2.93 ms at 2000 units and 0.067 vs 0.110 ms at 60 (and the
        scan grows by a full pass per extra probe).
        """
        probe = compiled.probe
        out: list = [None] * len(frames)
        groups: dict[tuple, list[tuple[int, tuple]]] = {}
        for i, (bounds, (eq_vals, neq_vals)) in enumerate(
            zip(probe.bounds(frames), probe.cats(frames))
        ):
            if bounds is SCAN:
                out[i] = self._scan(fn, frames[i])
                continue
            if bounds is None or self._has_null(eq_vals, neq_vals):
                continue  # empty selection: ArgMin/ArgMax over nothing
            (xlo, xhi), (ylo, yhi) = bounds
            rx = round((xhi - xlo) / 2.0, 9)
            ry = round((yhi - ylo) / 2.0, 9)
            groups.setdefault((eq_vals, neq_vals, rx, ry), []).append(
                (i, (xlo, xhi, ylo, yhi))
            )

        shape = compiled.shape
        kind = shape.extreme_kind
        for (eq_vals, neq_vals, _, _), probes in groups.items():
            self._bump("build_sweep")
            self._bump("probe_sweep", len(probes))
            boxes = [box for _, box in probes]
            merged: list = [None] * len(probes)
            parts = self._sweep_partitions(fn, compiled)
            for cat_key, (xy, values, keys, by_key) in parts.items():
                if not self._group_matches(cat_key, eq_vals, neq_vals):
                    continue
                results = sweep_arg_minmax(xy, values, keys, boxes, kind)
                for j, res in enumerate(results):
                    if res is None:
                        continue
                    value, key = res
                    candidate = (value, key) if kind == "min" else (-value, key)
                    if merged[j] is None or candidate < merged[j][0]:
                        merged[j] = (candidate, by_key[key])
            for (i, _), entry in zip(probes, merged):
                if entry is not None:
                    (ordered_value, _), row = entry
                    value = ordered_value if kind == "min" else -ordered_value
                    out[i] = Record(row) if shape.returns_row else value
        return out

    def _sweep_partitions(
        self, fn: AggregateFunction, compiled: _CompiledShape
    ) -> dict[tuple, tuple]:
        """*fn*'s sweep sources split by category key, as ``(points,
        values, keys, key -> row)`` columns; once per tick."""
        parts = self._sweep_parts.get(fn.name)
        if parts is not None:
            return parts
        shape = compiled.shape
        key_attr = self.key_attr
        partitions: dict[tuple, list] = {}
        key_of = key_getter(shape.cat_attrs)
        for row in self._filtered_rows(compiled):
            partitions.setdefault(key_of(row), []).append(row)
        ax, ay = shape.range_attrs  # classifier guarantees exactly 2 dims
        value_fn = compiled.value_fn
        parts = self._sweep_parts[fn.name] = {
            key: (
                [(r[ax], r[ay]) for r in rows],
                [value_fn(r) for r in rows],
                [r[key_attr] for r in rows],
                {r[key_attr]: r for r in rows},
            )
            for key, rows in partitions.items()
        }
        return parts

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
            )
            self._row_index[fn.name] = index
        return index

    def _eval_fallback(
        self, fn: AggregateFunction, compiled: _CompiledShape, frames: list
    ) -> list:
        """Per frame, scan the rows of its matching groups."""
        index = self._ensure_row_index(fn, compiled)
        self._bump("probe_scan", len(frames))
        empty = empty_aggregate_result(compiled.shape.outputs)
        out = []
        for f, groups in zip(
            frames, self._groups_by_cats(index, compiled, frames)
        ):
            if not groups:
                out.append(empty)
                continue
            rows: list = []
            for group in groups:
                rows.extend(group)
            # zip stops at the parameters: the frame's trailing ``e`` slot
            out.append(
                evaluate_aggregate_scan(
                    fn.spec, dict(zip(fn.params, f[1:])), rows, f[0]
                )
            )
        return out

    def _scan(self, fn: AggregateFunction, f: list) -> object:
        """Frame *f*'s answer by the reference scan: for the probes an
        index cannot answer (a NULL or NaN centre, a bound that is not a
        real number)."""
        self._bump("probe_scan")
        params = dict(zip(fn.params, f[1:]))  # not the ``e`` slot
        return evaluate_aggregate_scan(fn.spec, params, self._env.rows, f[0])

    def _filtered_rows(self, compiled: _CompiledShape) -> list:
        rows = self._env.rows
        if compiled.build_filter is None:
            return rows
        build_filter = compiled.build_filter
        return [row for row in rows if build_filter(row)]
