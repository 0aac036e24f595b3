"""Set-at-a-time execution of bag-algebra plans (Sections 5.1–5.2).

The executor walks a plan DAG and evaluates it against one environment
table.  Three properties realise the paper's optimisations:

* **identity memoisation** -- node objects shared by several parents
  (the σφ / σ¬φ pattern of rule 9, shared aggregate extensions of rule
  8) evaluate exactly once per tick;
* **pluggable aggregate evaluation** -- ``AggExtend`` probes whatever
  :class:`~repro.sgl.evalterm.AggregateEvaluator` the caller supplies,
  so the same plan runs naively or over the Section 5.3 indexes;
* **late materialisation** -- unit rows are only copied when a branch
  actually extends them.

``execute_plan`` returns the combined tick table (Eq. 6), bit-identical
to :func:`repro.sgl.interp.reference_tick` on the same script.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..env.combine import combine_all
from ..env.table import EnvironmentTable
from ..sgl.builtins import FunctionRegistry
from ..sgl.errors import SglTypeError
from ..sgl.evalterm import EvalContext, eval_cond, eval_term
from ..sgl.sqlspec import apply_action_scan
from .ops import AggExtend, Apply, Combine, Extend, Plan, ScanE, Select

RngFunction = Callable[[Mapping[str, object], int], int]

#: A unit stream: (rows, extension column names, unit parameter name).
_UnitStream = tuple[list[dict[str, object]], frozenset[str], str]


class PlanExecutor:
    """Executes one plan against one environment snapshot."""

    def __init__(
        self,
        env: EnvironmentTable,
        registry: FunctionRegistry,
        agg_eval,
        rng: RngFunction,
    ):
        self.env = env
        self.registry = registry
        self.agg_eval = agg_eval
        self.rng = rng
        # keyed by id(plan); the entry pins the plan node so a
        # collected plan's recycled id can never alias a stale result
        self._memo: dict[int, tuple[Plan, object]] = {}
        #: number of operator evaluations actually performed (the plan
        #: tests use this to show rule-9 sharing pays off)
        self.ops_evaluated = 0

    # -- public -----------------------------------------------------------------

    def run(self, plan: Combine) -> EnvironmentTable:
        if not isinstance(plan, Combine):
            raise SglTypeError("top-level plan must be a Combine node")
        tables = []
        if plan.include_e:
            tables.append(self.env)
        for child in plan.inputs:
            effect = self._effects(child)
            table = EnvironmentTable(self.env.schema)
            table.rows.extend(effect)
            tables.append(table)
        return combine_all(tables, self.env.schema)

    # -- unit streams -------------------------------------------------------------

    def _units(self, plan: Plan) -> _UnitStream:
        entry = self._memo.get(id(plan))
        if entry is not None and entry[0] is plan:
            return entry[1]  # shared subplan: evaluated once (rule 9)
        self.ops_evaluated += 1

        if isinstance(plan, ScanE):
            result: _UnitStream = (self.env.rows, frozenset(), plan.param)
        elif isinstance(plan, Extend):
            rows, cols, param = self._units(plan.child)
            out = []
            for row in rows:
                ctx = self._row_ctx(row, cols, param)
                new_row = dict(row)
                new_row[plan.name] = eval_term(plan.term, ctx)
                out.append(new_row)
            result = (out, cols | {plan.name}, param)
        elif isinstance(plan, AggExtend):
            rows, cols, param = self._units(plan.child)
            out = []
            for row in rows:
                ctx = self._row_ctx(row, cols, param)
                new_row = dict(row)
                new_row[plan.name] = eval_term(plan.call, ctx)
                out.append(new_row)
            result = (out, cols | {plan.name}, param)
        elif isinstance(plan, Select):
            rows, cols, param = self._units(plan.child)
            out = [
                row
                for row in rows
                if eval_cond(plan.cond, self._row_ctx(row, cols, param))
            ]
            result = (out, cols, param)
        else:
            raise SglTypeError(f"{plan!r} is not a unit-stream operator")

        self._memo[id(plan)] = (plan, result)
        return result

    # -- effect streams -------------------------------------------------------------

    def _effects(self, plan: Plan) -> list[dict[str, object]]:
        entry = self._memo.get(id(plan))
        if entry is not None and entry[0] is plan:
            return entry[1]
        if not isinstance(plan, Apply):
            raise SglTypeError(
                f"effect inputs must be Apply nodes, got {plan!r}"
            )
        self.ops_evaluated += 1
        rows, cols, param = self._units(plan.child)
        builtin = self.registry.action(plan.action)
        out: list[dict[str, object]] = []
        for row in rows:
            ctx = self._row_ctx(row, cols, param)
            args = [eval_term(a, ctx) for a in plan.args]
            if builtin.native is not None:
                out.extend(builtin.native(args, ctx))
            else:
                bindings = dict(zip(builtin.params, args))
                out.extend(apply_action_scan(builtin.spec, bindings, ctx))
        self._memo[id(plan)] = (plan, out)
        return out

    # -- helpers -----------------------------------------------------------------

    def _row_ctx(
        self, row: Mapping[str, object], cols: frozenset[str], param: str
    ) -> EvalContext:
        # the scan parameter binds first so that inlined function
        # parameters and let-columns of the same name shadow it
        bindings: dict[str, object] = {param: row}
        # reprolint: disable=unsorted-set-iter -- bindings is only ever
        # key-looked-up (never iterated), so frozenset order cannot leak;
        # sorting here would cost a per-row sort on the hot path
        for col in cols:
            bindings[col] = row[col]
        return EvalContext(
            env=self.env,
            registry=self.registry,
            agg_eval=self.agg_eval,
            rng=self.rng,
            bindings=bindings,
            unit=row,
        )


def execute_plan(
    plan: Combine,
    env: EnvironmentTable,
    registry: FunctionRegistry,
    agg_eval,
    rng: RngFunction,
) -> EnvironmentTable:
    """Run *plan* for one tick; returns the combined table of Eq. 6."""
    return PlanExecutor(env, registry, agg_eval, rng).run(plan)

