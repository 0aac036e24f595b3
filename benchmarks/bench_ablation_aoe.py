"""Ablation A-AOE -- the ⊕ optimisation for area effects (Section 5.4).

n healers × k units per aura emit O(n·k) effect rows when applied per
pair; the deferred path registers one center of effect per healer and
computes one combined value per affected unit via the Figure-9 sweep.

The optimisation is a property of how an action is lowered, so this
bench toggles it there: the healer script is lowered both ways
(``DecisionRunner(..., indexed=True)`` defers the ``aoe``-shaped Heal,
``indexed=False`` scans ``E`` for it) and one decision step runs over
the same field through ⊕:

* deferred: AoE records → ``resolve_aoe`` → ``combine_all``;
* per-pair: scanned effect rows → ``combine_all``.

Workload: a healer-heavy field, dense enough that auras overlap
massively (the adversarial case the paper's "nuclear weapons in
Starcraft" aside gestures at).  Expected shape: deferred beats per-pair
and both combine to the same table.
"""

import time
from dataclasses import dataclass

from benchmarks.util import emit, fmt_table
from repro.algebra.shapes import classify_action
from repro.engine.decision import DecisionRunner
from repro.engine.effects import resolve_aoe
from repro.engine.evaluator import NaiveEvaluator
from repro.engine.rng import TickRandom
from repro.env.combine import combine_all
from repro.env.schema import battle_schema
from repro.env.table import EnvironmentTable
from repro.game.scenario import uniform_battle
from repro.game.scripts import build_registry
from repro.game.units import ARCHER, HEALER, KNIGHT
from repro.sgl.evalterm import EvalContext
from repro.sgl.parser import parse_script

N = 400
SEED = 4
HEALER_HEAVY = {KNIGHT: 0.25, ARCHER: 0.15, HEALER: 0.6}
HEAL_SCRIPT = "main(u) { if u.unittype = 'healer' then perform Heal(u) }"


@dataclass
class Step:
    """One lowering's decision step, through ⊕."""

    seconds: float
    records: int  # deferred AoE records
    rows: int  # effect rows entering ⊕
    table: object  # the combined environment


def healer_field():
    env, _ = uniform_battle(
        N,
        density=0.04,  # dense: every aura covers many units
        composition=HEALER_HEAVY,
        seed=SEED,
        schema=battle_schema(),
    )
    return env


def decision_step(env, registry, *, indexed: bool) -> Step:
    """Run the healer script over *env* under one lowering and combine
    its effects; times everything after lowering."""
    runner = DecisionRunner(
        parse_script(HEAL_SCRIPT), registry, indexed=indexed
    )
    assert runner.actions["Heal"] == ("deferred aoe" if indexed else "scan")
    shapes = {
        name: classify_action(fn.spec)
        for name, fn in registry.actions.items()
        if fn.spec is not None
    }
    rt = EvalContext(
        env=env,
        registry=registry,
        agg_eval=NaiveEvaluator(),
        rng=TickRandom(SEED, tick=1),
    )
    start = time.perf_counter()
    rows, aoe = [], []
    runner.run_batch(
        env.rows, rt, env.by_key() if indexed else None, rows, aoe
    )
    rows += resolve_aoe(aoe, env.rows, env.schema, shapes, registry.constants)
    effects = EnvironmentTable(env.schema)
    effects.rows.extend(rows)
    table = combine_all([env, effects], env.schema)
    return Step(time.perf_counter() - start, len(aoe), len(rows), table)


def test_aoe_optimization(benchmark, capsys):
    env, registry = healer_field(), build_registry()
    results = {}

    def sweep():
        results["deferred"] = decision_step(env, registry, indexed=True)
        results["per-pair"] = decision_step(env, registry, indexed=False)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    deferred, per_pair = results["deferred"], results["per-pair"]

    emit(capsys,
         f"A-AOE: healer decision step ({N} units, 60% healers, dense)",
         fmt_table(
             ["⊕ strategy", "sec/step", "AoE records", "rows into ⊕",
              "speedup"],
             [["deferred (Section 5.4)", deferred.seconds, deferred.records,
               deferred.rows, f"{per_pair.seconds / deferred.seconds:.2f}x"],
              ["per-pair rows", per_pair.seconds, per_pair.records,
               per_pair.rows, "1.00x"]],
         ))

    assert deferred.records and not per_pair.records
    assert deferred.seconds <= per_pair.seconds, (
        "deferred AoE must not lose to per-pair application"
    )


def test_aoe_combined_effects_equal(benchmark):
    env, registry = healer_field(), build_registry()

    def check():
        deferred = decision_step(env, registry, indexed=True)
        per_pair = decision_step(env, registry, indexed=False)
        assert deferred.table == per_pair.table

    benchmark.pedantic(check, rounds=1, iterations=1)
