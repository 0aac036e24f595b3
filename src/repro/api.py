"""Convenience facade over the full system.

Most downstream users want one of three things:

* **run the battle**: :func:`run_battle` / :class:`BattleSimulation`;
* **script their own game**: :func:`compile_script` +
  :class:`~repro.engine.decision.GameDefinition` -- bring a schema, SQL
  built-ins, and SGL scripts (validated by lowering them, as the engine
  does); get a naive/indexed engine, serial or over process workers;
* **explain a script**: :func:`explain_script` -- every call site as
  the engine compiles it: how each aggregate is evaluated, the index it
  probes and at what cost, each built-in action's dispatch, and the
  Python source the script is lowered to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra.shapes import classify_aggregate
from .engine.compile import CallSite
from .engine.decision import DecisionRunner
from .engine.decision import GameDefinition as GameDefinition  # re-export
from .env.schema import Schema
from .game.battle import BattleSimulation, BattleSummary
from .sgl.ast import Script
from .sgl.builtins import AggregateFunction, FunctionRegistry
from .sgl.parser import parse_script


def compile_script(
    source: str, registry: FunctionRegistry, schema: Schema | None = None
) -> Script:
    """Parse an SGL script and validate it by lowering it, as the engine
    does: unknown names, wrong arities and functions without a unit
    parameter raise :class:`~repro.sgl.errors.SglError`s, and given
    *schema*, so does a field read on ``main``'s unit that *schema*
    lacks."""
    script = parse_script(source)
    DecisionRunner(script, registry, schema=schema)
    return script


#: The cost of one call site per aggregate shape (the tractable fragment
#: and its price, after SIGNAL -- Kampik & Okulmus, PAPERS.md).
_COST = {
    "divisible": "O(log² n) per probe",
    "extreme": "one Figure-9 sweep per batch",
    "nearest": "kD-tree k-NN per probe",
    "fallback": "scan, O(n) per call",
}


@dataclass(frozen=True)
class ExplainRow:
    """One aggregate call site and its shape's kind and cost class."""

    site: CallSite
    kind: str
    cost: str


def _explain_row(site: CallSite, function: AggregateFunction) -> ExplainRow:
    if function.spec is None:
        return ExplainRow(site, "native", "native")
    kind = classify_aggregate(function.spec).kind
    return ExplainRow(site, kind, _COST[kind])


@dataclass
class ExplainResult:
    """What ``explain_script`` reports: the aggregate call sites, the
    built-in action dispatch and the emitted source -- the module of
    batch stages, exactly as compiled -- of the :class:`DecisionRunner`
    the engine runs."""

    rows: list[ExplainRow]
    actions: dict[str, str]
    source: str

    @property
    def aggregate_kinds(self) -> dict[str, str]:
        return {row.site.aggregate: row.kind for row in self.rows}

    def __str__(self) -> str:
        sites: list[tuple[str, ...]] = [
            ("function", "aggregate", "evaluation", "kind", "cost")
        ]
        sites += [
            (r.site.function, r.site.aggregate, r.site.evaluation, r.kind, r.cost)
            for r in self.rows
        ]
        actions: list[tuple[str, ...]] = [("action", "dispatch")]
        actions += self.actions.items()
        return "\n\n".join(_aligned(table) for table in (sites, actions))


def _aligned(table: list[tuple[str, ...]]) -> str:
    widths = [max(map(len, column)) for column in zip(*table)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    )


def explain_script(source: str, registry: FunctionRegistry) -> ExplainResult:
    """EXPLAIN for SGL, read off the script's :class:`DecisionRunner` as
    the default indexed engine builds it."""
    runner = DecisionRunner(parse_script(source), registry)
    return ExplainResult(
        rows=[
            _explain_row(site, registry.aggregates[site.aggregate])
            for site in runner.call_sites
        ],
        actions=dict(runner.actions),
        source=runner.source,
    )


def run_battle(
    n_units: int | None,
    ticks: int,
    *,
    resume_from: str | None = None,
    **battle,
) -> BattleSummary:
    """One-call battle run; returns the summary with per-tick stats.

    *battle* keywords go to :class:`BattleSimulation`: its scenario
    parameters, ``epoch_log``, and every
    :class:`~repro.engine.clock.EngineConfig` knob.  The battle's
    measures are integer-valued, so trajectories are bit-identical
    across every combination of engine knobs; only wall-clock differs.

    *resume_from* resumes a
    :meth:`~repro.game.battle.BattleSimulation.save` file instead of
    starting fresh: the saved configuration wins except where *battle*
    overrides it (*n_units* may be ``None``), the battle runs *ticks*
    further ticks, and the combined trajectory is bit-identical to an
    uninterrupted run.
    """
    if resume_from is not None:
        sim = BattleSimulation.load(resume_from, **battle)
    elif n_units is None:
        raise ValueError("n_units is required unless resume_from is given")
    else:
        sim = BattleSimulation(n_units, **battle)
    with sim:
        return sim.run(ticks)
