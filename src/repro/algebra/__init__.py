"""Aggregate and action shape analysis (Section 5.3).

Each built-in's restricted-SQL spec is classified once: which index an
aggregate can probe (divisible, extreme, nearest, or the scan fallback)
and how an action resolves its targets (key, AoE, or scan).  The engine
lowers scripts straight from the SGL AST (:mod:`repro.engine.compile`)
and reads these shapes to pick evaluators and dispatch.
"""

from .shapes import (
    ActionShape,
    AggregateShape,
    Bound,
    EqConstraint,
    NeqConstraint,
    RangeConstraint,
    classify_action,
    classify_aggregate,
    match_squared_distance,
    names_in,
    refs_e,
)

__all__ = [
    "ActionShape",
    "AggregateShape",
    "Bound",
    "EqConstraint",
    "NeqConstraint",
    "RangeConstraint",
    "classify_action",
    "classify_aggregate",
    "match_squared_distance",
    "names_in",
    "refs_e",
]


def translate_script(script, registry):
    """Lower *script* to the :class:`~repro.engine.decision.DecisionRunner`
    the default indexed engine runs: all the planning a script gets.

    Kept only for the perf ledger's ``algebra.plan_s`` set-up stage
    (``benchmarks/ledger/workloads.py``), which times
    ``optimize(translate_script(script, registry), registry)``; it goes
    when that stage does."""
    from ..engine.decision import DecisionRunner  # the layer above

    return DecisionRunner(script, registry)


def optimize(runner, registry):
    """The identity: the compiler stages and shares while it lowers.
    Kept only for the ledger stage, like :func:`translate_script`."""
    return runner
