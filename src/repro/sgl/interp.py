"""Reference interpreter for SGL: the semantics [[.]] of Section 4.3.

This is the *specification* evaluator: a direct, tuple-at-a-time
transcription of the paper's semantics equations::

    [[(let v := t) f]]E,r(u) = [[f]]E,r(u, v: [[t]]term(u,E,r))
    [[f1; f2]]E,r(u)         = [[f1]]E,r(u) ⊕ [[f2]]E,r(u)
    [[if phi then f1]]E,r(u) = [[f1]]E,r(u) if phi(u) else ∅
    [[perform G]]E,r(u)      = [[g]]E,r(u)        (defined function g)
    [[perform H]]E,r(u)      = h(u, E, r)          (built-in action h)

and the script-level semantics (Eqs. 6 and 7)::

    f⊕(E)      = ⊕(⨄ {[[f]]E,r(u) | u ∈ E})
    tick(E, r) = main⊕(E) ⊕ E

Everything else in the system -- the algebra translation, the rewrite
rules, the index-backed engine -- is validated against this interpreter
by the equivalence tests in ``tests/``.  It is deliberately simple and
slow (the naive O(n²) behaviour the paper's Figure 10 measures).
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..env.combine import combine, combine_all, combine_pair
from ..env.table import EnvironmentTable
from . import ast
from .builtins import AggregateFunction, FunctionRegistry
from .errors import SglNameError, SglTypeError
from .evalterm import EvalContext, eval_cond, eval_term
from .sqlspec import apply_action_scan, evaluate_aggregate_scan

RngFunction = Callable[[Mapping[str, object], int], int]


class NaiveAggregateEvaluator:
    """Evaluates every aggregate by scanning the environment: O(n) each.

    This is the first of the two pluggable evaluators of Section 6; the
    index-backed one lives in :mod:`repro.engine.evaluator`.
    """

    def evaluate(
        self, function: AggregateFunction, args: list[object], ctx: EvalContext
    ) -> object:
        if function.native is not None:
            return function.native(args, ctx.env.rows, ctx)
        bindings = dict(zip(function.params, args))
        return evaluate_aggregate_scan(function.spec, bindings, ctx.env.rows, ctx)

    def evaluate_batch(
        self,
        function: AggregateFunction,
        arg_rows: list[list[object]],
        ctxs: list[EvalContext],
    ) -> list[object]:
        """One :meth:`evaluate` per call: a scan has nothing to share."""
        return [
            self.evaluate(function, args, ctx)
            for args, ctx in zip(arg_rows, ctxs)
        ]


class Interpreter:
    """Tuple-at-a-time evaluator for one script against one environment."""

    def __init__(
        self,
        script: ast.Script,
        registry: FunctionRegistry,
        agg_eval: object | None = None,
    ):
        self.script = script
        self.registry = registry
        self.agg_eval = agg_eval if agg_eval is not None else NaiveAggregateEvaluator()

    # -- public API -----------------------------------------------------------

    def run_unit(
        self,
        unit: Mapping[str, object],
        env: EnvironmentTable,
        rng: RngFunction,
    ) -> EnvironmentTable:
        """``⊕[[main]]E,r(u)`` -- the combined effect table of one unit."""
        ctx = EvalContext(
            env=env,
            registry=self.registry,
            agg_eval=self.agg_eval,
            rng=rng,
            bindings={},
            unit=unit,
        )
        main = self.script.main
        if len(main.params) != 1:
            raise SglTypeError(
                f"entry function {main.name!r} must take exactly the unit"
            )
        ctx.bindings[main.params[0]] = unit
        return self._action(main.body, ctx)

    # -- semantics ------------------------------------------------------------

    def _empty(self, env: EnvironmentTable) -> EnvironmentTable:
        return EnvironmentTable(env.schema)

    def _action(self, node: ast.Action, ctx: EvalContext) -> EnvironmentTable:
        if isinstance(node, ast.Skip):
            return self._empty(ctx.env)
        if isinstance(node, ast.Let):
            value = eval_term(node.term, ctx)
            return self._action(node.body, ctx.bind({node.name: value}))
        if isinstance(node, ast.Seq):
            left = self._action(node.first, ctx)
            right = self._action(node.second, ctx)
            return combine_pair(left, right)
        if isinstance(node, ast.If):
            if eval_cond(node.cond, ctx):
                return self._action(node.then_branch, ctx)
            if node.else_branch is not None:
                return self._action(node.else_branch, ctx)
            return self._empty(ctx.env)
        if isinstance(node, ast.Perform):
            return self._perform(node, ctx)
        raise SglTypeError(f"cannot interpret {node!r}")

    def _perform(self, node: ast.Perform, ctx: EvalContext) -> EnvironmentTable:
        args = [eval_term(a, ctx) for a in node.args]

        defined = self.script.functions.get(node.name)
        if defined is not None:
            if len(args) != len(defined.params):
                raise SglTypeError(
                    f"{node.name} expects {len(defined.params)} args, "
                    f"got {len(args)}"
                )
            # Defined functions see only their parameters (lexical scope),
            # plus the same environment and randomness.
            inner = EvalContext(
                env=ctx.env,
                registry=ctx.registry,
                agg_eval=ctx.agg_eval,
                rng=ctx.rng,
                bindings=dict(zip(defined.params, args)),
                unit=ctx.unit,
            )
            return self._action(defined.body, inner)

        builtin = self.registry.actions.get(node.name)
        if builtin is None:
            raise SglNameError(f"unknown action function {node.name!r}")
        if len(args) != len(builtin.params):
            raise SglTypeError(
                f"{node.name} expects {len(builtin.params)} args, got {len(args)}"
            )
        if builtin.native is not None:
            rows = builtin.native(args, ctx)
        else:
            bindings = dict(zip(builtin.params, args))
            rows = apply_action_scan(builtin.spec, bindings, ctx)
        table = EnvironmentTable(ctx.env.schema)
        table.rows.extend(rows)
        return combine(table)


def reference_tick(
    env: EnvironmentTable,
    script_for: Callable[[Mapping[str, object]], ast.Script],
    registry: FunctionRegistry,
    rng: RngFunction,
    agg_eval: object | None = None,
) -> EnvironmentTable:
    """Compute ``tick(E, r) = main⊕(E) ⊕ E`` (Eq. 6), tuple-at-a-time.

    *script_for* selects the script of each unit (the battle simulation
    assigns scripts by unit type).  The result is the combined effect
    table; applying effects to produce the next state is the engine's
    post-processing step (Example 4.1), outside SGL semantics.
    """
    interpreters: dict[int, Interpreter] = {}
    tables = [env]
    for unit in env:
        script = script_for(unit)
        interp = interpreters.get(id(script))
        if interp is None:
            interp = Interpreter(script, registry, agg_eval)
            interpreters[id(script)] = interp
        tables.append(interp.run_unit(unit, env, rng))
    return combine_all(tables, env.schema)
