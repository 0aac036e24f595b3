"""The decision phase: set-at-a-time script execution.

A game is one :class:`GameDefinition` -- schema, function registry,
scripts, and the row attribute whose value picks a unit's script -- and
its decision phase is one :class:`DecisionStage`: the serial engine
runs it in process, and every process or remote decision worker runs
the same class over the game it received when its pool started.  It
holds one :class:`DecisionRunner` per selector value, the evaluator and
the rng.

Runs every unit's script against the tick-start environment and collects
effect rows -- one batch per script per shard (:func:`run_batches`), so
each aggregate call site reaches the evaluator once per batch of units
(:meth:`DecisionRunner.run_batch`).  Semantically identical to the
reference interpreter (``⊕`` is associative/commutative/idempotent --
Eq. 3 -- so appending all effect rows to one multiset and combining
once equals the nested per-``Seq`` combines of Section 4.3);
operationally each script is lowered once by :mod:`repro.engine.compile`
into one emitted module of batch stages over slot-indexed frames, whose
effects are concatenated in unit order (:mod:`repro.sgl.interp` stays
the oracle the differential tests use).

Action application is itself classified (``repro.algebra.shapes``) and
lowered once per built-in by :func:`compile_action`, the one perform
dispatch:

* ``key`` actions resolve their target through a per-tick ``key → row``
  hash instead of scanning E (so a ``perform FireAt`` is O(1), keeping
  the engine's per-tick cost in the aggregates where the paper puts it);
* ``aoe`` actions are *deferred*: instead of emitting one effect row
  per unit in the area, the performer registers its center of effect and
  the post-decision resolver of :mod:`repro.engine.effects` computes the
  combined field per unit (the ⊕ optimisation of Section 5.4);
* ``scan`` actions run the naive Eq.-(4) evaluation.

That is the indexed lowering; the naive engine lowers every action to
scan, matching the paper's baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from ..algebra.shapes import classify_action
from ..env.schema import Schema
from ..env.table import EnvironmentTable, TableDelta
from ..sgl import ast
from ..sgl.builtins import ActionFunction, FunctionRegistry
from ..sgl.evalterm import EvalContext
from ..sgl.sqlspec import apply_action_scan
from .compile import ActionFn, Probe, lower_script
from .effects import AoeRecord
from .evaluator import IndexedEvaluator, NaiveEvaluator
from .rng import TickRandom

if TYPE_CHECKING:
    from .clock import MechanicsFn, SimulationEngine


class DecisionRunner:
    """Executes one script's decisions for many units, appending effect
    rows (and deferred AoE records) to shared per-tick collections.

    *indexed* picks the action lowering of :func:`compile_action`: the
    indexed engine's (the default) or the naive engine's.
    :attr:`call_sites` (each aggregate call site, as lowered),
    :attr:`actions` (each built-in action's dispatch) and :attr:`source`
    (the script's emitted module, exactly as compiled) are what EXPLAIN
    prints (:func:`repro.api.explain_script`).  Lowering validates the
    script; given *schema*, also the unit attributes ``main`` reads
    (:func:`~repro.engine.compile.lower_script`).
    """

    def __init__(
        self,
        script: ast.Script,
        registry: FunctionRegistry,
        *,
        indexed: bool = True,
        schema: Schema | None = None,
    ):
        self.script = script
        self._batch: _Batch | None = None
        self.actions: dict[str, str] = {}
        self._run, self.call_sites, self.source = lower_script(
            script,
            registry,
            lambda fn: compile_action(
                fn, registry, indexed=indexed, dispatch=self.actions
            ),
            None if schema is None else schema.names,
        )

    def run_batch(
        self,
        units: Sequence[Mapping[str, object]],
        rt: EvalContext,
        by_key: Mapping[object, Mapping[str, object]] | None,
        out_rows: list,
        out_aoe: list[AoeRecord],
    ) -> None:
        """Execute ``main`` for every unit of *units* as one batch;
        *by_key* enables key actions.  *rt* is the caller's runtime
        record (:mod:`repro.engine.compile`); each unit runs under a copy
        pointed at it.  Effects reach *out_rows*/*out_aoe* in unit order,
        each unit's in program order -- exactly as per-unit execution
        appends them.

        Each unit still enters through :meth:`run_unit`, the decision
        stage's per-unit entry point (and the span the perf ledger times,
        ``benchmarks/ledger/spec.py``): the first call executes the whole
        batch set-at-a-time, every call hands back its unit's effects.
        If any unit of the batch raises, the batch's effects are
        discarded and each unit runs alone, so the call raises exactly
        the exception per-unit execution raises, at the same unit.
        """
        self._batch = _Batch(units, rt, by_key)
        try:
            for unit in units:
                self.run_unit(unit, rt, by_key, out_rows, out_aoe)
        finally:
            self._batch = None

    def run_unit(
        self,
        unit: Mapping[str, object],
        rt: EvalContext,
        by_key: Mapping[object, Mapping[str, object]] | None,
        out_rows: list,
        out_aoe: list[AoeRecord],
    ) -> None:
        """Execute ``main`` for *unit*: a batch of one -- or, inside
        :meth:`run_batch`, the unit's share of the running batch."""
        batch = self._batch
        frame = None if batch is None else batch.next_frame(self._execute)
        if frame is None:
            (frame,) = self._execute([unit], rt, by_key)
        out_rows += frame[2]
        out_aoe += frame[3]

    def _execute(
        self,
        units: Sequence[Mapping[str, object]],
        rt: EvalContext,
        by_key: Mapping[object, Mapping[str, object]] | None,
    ) -> list[list]:
        """Run the lowered script over *units*; returns their frames."""
        env, registry, agg_eval, rng = rt.env, rt.registry, rt.agg_eval, rt.rng
        bindings = rt.bindings
        return self._run(
            [
                EvalContext(env, registry, agg_eval, rng, bindings, unit)
                for unit in units
            ],
            by_key,
        )


class _Batch:
    """The units :meth:`DecisionRunner.run_batch` is handing out, and
    their script frames once executed."""

    __slots__ = ("units", "rt", "by_key", "frames")

    def __init__(self, units, rt, by_key):
        self.units = units
        self.rt = rt
        self.by_key = by_key
        self.frames: Iterator[list] | None = None

    def next_frame(self, execute) -> list | None:
        """The next unit's frame; ``None`` once the batch has raised
        (the caller then runs that unit alone)."""
        if self.frames is None:
            try:
                self.frames = iter(execute(self.units, self.rt, self.by_key))
            except Exception:
                self.frames = iter(())
        return next(self.frames, None)


def run_batches(
    batches: Sequence[tuple[DecisionRunner, list]],
    rt: EvalContext,
    by_key: Mapping[object, Mapping[str, object]] | None,
) -> tuple[list[dict[str, object]], list[AoeRecord]]:
    """One shard's decision stage: one batch per ``(runner, units)``
    pair; returns the shard's effect rows and AoE records."""
    effect_rows: list[dict[str, object]] = []
    aoe_records: list[AoeRecord] = []
    for runner, units in batches:
        runner.run_batch(units, rt, by_key, effect_rows, aoe_records)
    return effect_rows, aoe_records


@dataclass
class GameDefinition:
    """Everything needed to run a data-driven game's decisions.

    A unit's script is ``scripts[row[script_selector]]``, wherever its
    decision runs.  The definition is plain picklable data: the engine
    ships it to its decision workers and spectator replicas when they
    start, so edit ``scripts`` (a mod) before the first tick.
    """

    schema: Schema
    registry: FunctionRegistry
    scripts: dict[str, ast.Script]
    script_selector: str = "unittype"  # row attribute choosing the script

    def engine(
        self,
        env: EnvironmentTable,
        mechanics: MechanicsFn,
        **engine,
    ) -> SimulationEngine:
        """Build a :class:`~repro.engine.clock.SimulationEngine` for this
        game.

        Every keyword is an :class:`~repro.engine.clock.EngineConfig`
        field -- that docstring is the knob reference.

        Both evaluation modes, patched or rebuilt indexes, shard counts
        and worker layouts are bit-identical in trajectory when
        aggregate measure and effect sums are floating-point exact (e.g.
        integer-valued measures); per-shard evaluation sums in a
        different order than a flat scan, so inexact float sums may
        drift in final ulps.  Only wall-clock differs otherwise.
        """
        from .clock import EngineConfig, SimulationEngine

        return SimulationEngine(env, self, mechanics, EngineConfig(**engine))


class DecisionStage:
    """One game's decision phase: its runners, evaluator and rng.

    The serial engine calls it in process; a decision worker is this
    object plus its replica of ``E`` and its transport loop.  Per tick,
    :meth:`begin_tick` arms the evaluator for the tick-start ``E`` and
    :meth:`decide` runs every given shard's units, one batch per script.
    ``mode="indexed"`` probes the Section 5.3 structures and lowers
    actions to key lookups and deferred area effects (its evaluator
    decides rebuild-or-patch from the delta :meth:`begin_tick` hands
    it); ``"naive"`` scans for both.
    """

    def __init__(
        self, game: GameDefinition, rng: TickRandom, *, mode: str = "indexed"
    ):
        self.game = game
        self.rng = rng
        self.indexed = mode == "indexed"
        self.agg_eval = (
            IndexedEvaluator(game.registry, key_attr=game.schema.key)
            if self.indexed
            else NaiveEvaluator()
        )
        self._runners: dict[object, DecisionRunner] = {}

    def runner(self, selector_value: object) -> DecisionRunner:
        """The compiled script of units whose selector is *selector_value*."""
        runner = self._runners.get(selector_value)
        if runner is None:
            runner = self._runners[selector_value] = DecisionRunner(
                self.game.scripts[selector_value],
                self.game.registry,
                indexed=self.indexed,
            )
        return runner

    def begin_tick(
        self,
        env: EnvironmentTable,
        delta: TableDelta | None,
        by_key: Mapping[object, Mapping[str, object]] | None = None,
    ) -> Mapping[object, Mapping[str, object]] | None:
        """Arm the evaluator for *env*, patching its retained indexes
        with *delta* or rebuilding them; returns the ``key -> row`` map
        key actions resolve through (*by_key* when the caller keeps one;
        ``None`` in naive mode, whose actions scan)."""
        if not self.indexed:
            return None
        self.agg_eval.begin_tick(env, delta=delta)
        return by_key if by_key is not None else env.by_key()

    def decide(
        self,
        env: EnvironmentTable,
        parts: Sequence[Sequence[dict[str, object]]],
        by_key: Mapping[object, Mapping[str, object]] | None,
    ) -> list[tuple[list[dict[str, object]], list[AoeRecord]]]:
        """Run the decisions of every shard's units in *parts* (each in
        flat row order, one batch per script); returns each shard's
        effect rows and AoE records."""
        rt = EvalContext(
            env=env,
            registry=self.game.registry,
            agg_eval=self.agg_eval,
            rng=self.rng,
        )
        return [run_batches(self._batches(part), rt, by_key) for part in parts]

    def _batches(
        self, units: Sequence[dict[str, object]]
    ) -> list[tuple[DecisionRunner, list[dict[str, object]]]]:
        """One ``(runner, units)`` batch per script, in row order."""
        selector = self.game.script_selector
        groups: dict[object, list[dict[str, object]]] = {}
        for row in units:
            groups.setdefault(row[selector], []).append(row)
        return [(self.runner(value), rows) for value, rows in groups.items()]


def compile_action(
    builtin: ActionFunction,
    registry: FunctionRegistry,
    *,
    indexed: bool = True,
    dispatch: dict[str, str] | None = None,
) -> ActionFn:
    """Lower one built-in action to ``(rt, args, by_key, out_rows, out_aoe)``;
    the dispatch it chose -- ``key``, ``deferred aoe``, ``scan`` or
    ``native`` -- goes to *dispatch* under the action's name.

    *indexed* lowers a ``key`` action to a ``by_key`` lookup and an
    ``aoe`` action to a deferred :class:`AoeRecord`, as the indexed
    engine runs them; otherwise, as in the naive engine, every spec
    action is a scan."""
    name = builtin.name
    spec = builtin.spec
    params = builtin.params
    native = builtin.native

    def chose(how: str, action: ActionFn) -> ActionFn:
        if dispatch is not None:
            dispatch[name] = how
        return action

    def everywhere(rt, args, by_key, out_rows, out_aoe):
        """Native and scan actions range over all of ``E``."""
        if native is not None:
            rows = native(args, rt)
        else:
            rows = apply_action_scan(spec, dict(zip(params, args)), rt)
        out_rows.extend(rows)

    if native is not None:
        return chose("native", everywhere)
    if not indexed:
        return chose("scan", everywhere)
    shape = classify_action(spec)

    if shape.kind == "key":
        terms = (shape.key_term, shape.extra_where, *spec.effects.values())
        probe = Probe(shape, params, registry, terms)
        e_slot = probe.e_slot
        key_of, where, *values = probe.fns
        effects = list(zip(spec.effects, values))

        def key_action(rt, args, by_key, out_rows, out_aoe):
            if by_key is None:
                return everywhere(rt, args, by_key, out_rows, out_aoe)
            f = [rt, *args, None]
            row = by_key.get(key_of(f))
            if row is None:
                return  # no such target: a no-op
            f[e_slot] = row
            if where is None or where(f):
                new_row = dict(row)
                for attr, term in effects:
                    new_row[attr] = term(f)
                out_rows.append(new_row)

        return chose("key", key_action)

    if shape.kind == "aoe":
        attr = shape.effect_attr
        probe = Probe(shape, params, registry, (shape.value_term,))
        guard = probe.guard
        (value_of,) = probe.fns

        def aoe_action(rt, args, by_key, out_rows, out_aoe):
            frames = [[rt, *args, None]]
            if guard is not None and not guard(frames[0]):
                return
            (bounds,) = probe.bounds(frames)
            if bounds is None:
                return
            (xlo, xhi), (ylo, yhi) = bounds
            value = value_of(frames[0])
            ((eq_vals, neq_vals),) = probe.cats(frames)
            out_aoe.append(
                AoeRecord(
                    action=name,
                    attr=attr,
                    value=value,
                    center=((xlo + xhi) / 2.0, (ylo + yhi) / 2.0),
                    extents=((xhi - xlo) / 2.0, (yhi - ylo) / 2.0),
                    eq_vals=eq_vals,
                    neq_vals=neq_vals,
                )
            )

        return chose("deferred aoe", aoe_action)

    return chose("scan", everywhere)
