"""The decision phase: set-at-a-time script execution.

Runs every unit's script against the tick-start environment and collects
effect rows.  Semantically identical to the reference interpreter
(``⊕`` is associative/commutative/idempotent -- Eq. 3 -- so appending
all effect rows to one multiset and combining once equals the nested
per-``Seq`` combines of Section 4.3); operationally each script is
lowered once by :mod:`repro.engine.compile` into slot-indexed closures
that append straight to the tick's effect collections
(:mod:`repro.sgl.interp` stays the oracle the differential tests use).

Action application is itself classified (``repro.algebra.shapes``) and
lowered once per built-in by :func:`compile_action`, the one perform
dispatch:

* ``key`` actions resolve their target through a per-tick ``key → row``
  hash instead of scanning E (so a ``perform FireAt`` is O(1), keeping
  the engine's per-tick cost in the aggregates where the paper puts it);
* ``aoe`` actions can be *deferred*: instead of emitting one effect row
  per unit in the area, the performer registers its center of effect and
  the post-decision resolver of :mod:`repro.engine.effects` computes the
  combined field per unit (the ⊕ optimisation of Section 5.4);
* ``scan`` actions run the naive Eq.-(4) evaluation.

The naive engine configuration uses scan for everything, matching the
paper's baseline.
"""

from __future__ import annotations

from typing import Mapping

from ..algebra.shapes import classify_action
from ..sgl import ast
from ..sgl.builtins import ActionFunction, FunctionRegistry
from ..sgl.evalterm import EvalContext
from ..sgl.sqlspec import apply_action_scan
from .compile import ActionFn, Probe, compile_filter, compile_term, lower_script
from .effects import AoeRecord


class DecisionRunner:
    """Executes one script's decisions for many units, appending effect
    rows (and deferred AoE records) to shared per-tick collections.
    """

    def __init__(
        self,
        script: ast.Script,
        registry: FunctionRegistry,
        *,
        index_actions: bool = True,
        defer_aoe: bool = False,
    ):
        self.script = script
        self._run = lower_script(
            script,
            registry,
            lambda fn: compile_action(
                fn, registry, index_actions=index_actions, defer_aoe=defer_aoe
            ),
        )

    def run_unit(
        self,
        unit: Mapping[str, object],
        rt: EvalContext,
        by_key: Mapping[object, Mapping[str, object]] | None,
        out_rows: list,
        out_aoe: list[AoeRecord],
    ) -> None:
        """Execute ``main`` for *unit*; *by_key* enables key actions.
        *rt* is the caller's runtime record (:mod:`repro.engine.compile`),
        re-pointed at each unit in turn."""
        rt.unit = unit
        self._run(rt, unit, by_key, out_rows, out_aoe)


def compile_action(
    builtin: ActionFunction,
    registry: FunctionRegistry,
    *,
    index_actions: bool = True,
    defer_aoe: bool = False,
) -> ActionFn:
    """Lower one built-in action to ``(rt, args, by_key, out_rows, out_aoe)``."""
    name = builtin.name
    spec = builtin.spec
    params = builtin.params
    native = builtin.native

    def everywhere(rt, args, by_key, out_rows, out_aoe):
        """Native and scan actions range over all of ``E``."""
        if native is not None:
            rows = native(args, rt)
        else:
            rows = apply_action_scan(spec, dict(zip(params, args)), rt)
        out_rows.extend(rows)

    if native is not None or not index_actions:
        return everywhere
    shape = classify_action(spec)
    probe = Probe(shape, params, registry)

    if shape.kind == "key":
        e_slot = probe.e_slot
        key_of = compile_term(shape.key_term, probe.scope)
        where = compile_filter(shape.extra_where, probe.scope)
        effects = [
            (attr, compile_term(term, probe.scope))
            for attr, term in spec.effects.items()
        ]

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

        return key_action

    if shape.kind == "aoe" and defer_aoe:
        attr = shape.effect_attr
        guard = probe.guard
        value_of = compile_term(shape.value_term, probe.scope)

        def aoe_action(rt, args, by_key, out_rows, out_aoe):
            f = [rt, *args, None]
            if guard is not None and not guard(f):
                return
            bounds = probe.bounds(f)
            if bounds is None:
                return
            (xlo, xhi), (ylo, yhi) = bounds
            value = value_of(f)
            eq_vals, neq_vals = probe.cats(f)
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

        return aoe_action

    return everywhere
