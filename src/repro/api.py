"""Convenience facade over the full system.

Most downstream users want one of three things:

* **run the battle**: :func:`run_battle` / :class:`BattleSimulation`;
* **script their own game**: :func:`compile_script` +
  :class:`~repro.engine.decision.GameDefinition` -- bring a schema, SQL
  built-ins, and SGL scripts; get a naive/indexed engine, serial or
  over process workers;
* **explain a script**: :func:`explain_script` -- the optimized algebra
  plan and the index chosen for each aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra.rewrite import optimize, sharing_report
from .algebra.shapes import classify_aggregate
from .algebra.translate import translate_script
from .engine.decision import GameDefinition
from .env.schema import Schema
from .game.battle import BattleSimulation, BattleSummary
from .sgl.analysis import analyze_script
from .sgl.ast import Script
from .sgl.builtins import FunctionRegistry
from .sgl.normalize import normalize_script
from .sgl.parser import parse_script


def compile_script(
    source: str,
    registry: FunctionRegistry,
    schema: Schema | None = None,
    *,
    normalize: bool = False,
) -> Script:
    """Parse and validate an SGL script against *registry* (and *schema*).

    With *normalize* the script is returned in aggregate normal form
    (Section 5.1) -- semantically identical, required only when feeding
    the algebra translator manually (it normalizes by itself).
    """
    script = parse_script(source)
    analyze_script(script, registry, schema)
    if normalize:
        script = normalize_script(script, registry)
    return script


@dataclass
class ExplainResult:
    """What ``explain_script`` reports."""

    plan: str
    sharing: dict[str, int]
    aggregate_kinds: dict[str, str]

    def __str__(self) -> str:
        lines = [self.plan, ""]
        lines.append("aggregate index selection:")
        for name, kind in sorted(self.aggregate_kinds.items()):
            lines.append(f"  {name}: {kind}")
        lines.append(f"sharing: {self.sharing}")
        return "\n".join(lines)


def explain_script(source: str, registry: FunctionRegistry) -> ExplainResult:
    """EXPLAIN for SGL: the optimized plan + per-aggregate index choice."""
    script = parse_script(source)
    analysis = analyze_script(script, registry)
    plan = optimize(translate_script(script, registry), registry)
    kinds = {
        name: classify_aggregate(registry.aggregates[name].spec).kind
        for name in analysis.aggregate_functions
        if registry.aggregates[name].spec is not None
    }
    return ExplainResult(
        plan=plan.describe(),
        sharing=sharing_report(plan),
        aggregate_kinds=kinds,
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
