"""Term and condition evaluation shared by every SGL evaluator.

The semantics functions ``[[.]]_term`` and ``[[.]]_cond`` of Section 4.3
are implemented here once and reused by the reference interpreter
(:mod:`repro.sgl.interp`), the restricted-SQL specs
(:mod:`repro.sgl.sqlspec`) and the algebra executor.

Evaluation happens inside an :class:`EvalContext`, which carries the
variable bindings, the environment table, the per-tick random function
``r(u, i)``, the function registry, and -- crucially -- the *pluggable
aggregate evaluator* of Section 6.  The naive and the indexed engines
differ only in the aggregate evaluator they install here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Mapping, Protocol

from . import ast
from .errors import SglNameError, SglRuntimeError, SglTypeError
from .values import Record, Vec, field_of

if TYPE_CHECKING:  # pragma: no cover
    from ..env.table import EnvironmentTable
    from .builtins import AggregateFunction, FunctionRegistry


class AggregateEvaluator(Protocol):
    """The pluggable aggregate-query evaluator interface (Section 6)."""

    def evaluate(
        self, function: "AggregateFunction", args: list[object], ctx: "EvalContext"
    ) -> object:
        """Evaluate aggregate *function* with bound *args* against ctx.env."""

    def evaluate_batch(
        self,
        function: "AggregateFunction",
        arg_rows: list[list[object]],
        ctxs: list["EvalContext"],
    ) -> list[object]:
        """:meth:`evaluate` for each ``(args, ctx)`` pair -- one call
        site over a batch of units, each call under its unit's context."""


#: Pure math builtins available in terms.  ``nonsql_max`` appears in the
#: paper's Figure 5; it is max outside SQL aggregation.
MATH_BUILTINS: dict[str, Callable[..., object]] = {
    "sqrt": math.sqrt,
    "abs": abs,
    "floor": math.floor,
    "ceil": math.ceil,
    "pow": pow,
    "exp": math.exp,
    "log": math.log,
    "sign": lambda x: (x > 0) - (x < 0),
    # arithmetic conditional: 1 when x >= 0 else 0.  Lets the restricted
    # SQL fragment (which has no CASE) encode to-hit checks and clamps.
    "step": lambda x: 1 if x >= 0 else 0,
    "nonsql_max": max,
    "nonsql_min": min,
    "norm": lambda v: v.norm() if isinstance(v, Vec) else abs(v),
    "vec": lambda *xs: Vec(xs),
}


@dataclass
class EvalContext:
    """Everything a term needs to evaluate.

    ``bindings`` maps names (function parameters and ``let``-bound
    variables) to values.  ``unit`` is the current unit row, used as the
    implicit first argument of single-argument ``Random(i)`` calls.
    """

    env: "EnvironmentTable"
    registry: "FunctionRegistry"
    agg_eval: AggregateEvaluator
    rng: Callable[[Mapping[str, object], int], int]
    bindings: dict[str, object] = field(default_factory=dict)
    unit: Mapping[str, object] | None = None

    def bind(self, extra: Mapping[str, object]) -> "EvalContext":
        """A child context with additional bindings (used by ``let``)."""
        merged = dict(self.bindings)
        merged.update(extra)
        return replace(self, bindings=merged)

    def lookup(self, name: str) -> object:
        try:
            return self.bindings[name]
        except KeyError:
            pass
        constant = self.registry.constants.get(name) if self.registry else None
        if constant is not None:
            return constant
        raise SglNameError(f"unbound name {name!r}")


def eval_term(term: ast.Term, ctx: EvalContext) -> object:
    """Evaluate *term* to a runtime value."""
    if isinstance(term, ast.Num):
        return term.value
    if isinstance(term, ast.Str):
        return term.value
    if isinstance(term, ast.Name):
        return ctx.lookup(term.ident)
    if isinstance(term, ast.FieldAccess):
        return field_of(eval_term(term.base, ctx), term.attr)
    if isinstance(term, ast.Neg):
        value = eval_term(term.operand, ctx)
        if value is None:
            return None  # NULL propagation
        try:
            return -value  # type: ignore[operator]
        except TypeError:
            raise SglTypeError(f"cannot negate {type(value).__name__}") from None
    if isinstance(term, ast.BinOp):
        return _eval_binop(term, ctx)
    if isinstance(term, ast.VecLit):
        items = [eval_term(item, ctx) for item in term.items]
        if any(item is None for item in items):
            return None  # NULL propagation
        return Vec(_require_number(item, "vector literal") for item in items)
    if isinstance(term, ast.Call):
        return _eval_call(term, ctx)
    raise SglTypeError(f"cannot evaluate {term!r} as a term")


def eval_cond(cond: ast.Cond, ctx: EvalContext) -> bool:
    """Evaluate *cond* to a boolean ([[.]]_cond commutes with booleans)."""
    if isinstance(cond, ast.BoolLit):
        return cond.value
    if isinstance(cond, ast.Not):
        return not eval_cond(cond.operand, ctx)
    if isinstance(cond, ast.And):
        return eval_cond(cond.left, ctx) and eval_cond(cond.right, ctx)
    if isinstance(cond, ast.Or):
        return eval_cond(cond.left, ctx) or eval_cond(cond.right, ctx)
    if isinstance(cond, ast.Compare):
        return compare(cond.op, eval_term(cond.left, ctx), eval_term(cond.right, ctx))
    raise SglTypeError(f"cannot evaluate {cond!r} as a condition")


def compare(op: str, left: object, right: object) -> bool:
    """Apply a comparison operator with SGL semantics.

    Equality works on any pair of values; ordering requires numbers or
    strings of matching type.  ``None`` (NULL -- an aggregate over an
    empty selection) compares false under every operator, the SQL
    three-valued treatment of unknown in a WHERE clause.
    """
    if left is None or right is None:
        return False
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    try:
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        if op == ">=":
            return left >= right  # type: ignore[operator]
    except TypeError:
        raise SglTypeError(
            f"cannot compare {type(left).__name__} {op} {type(right).__name__}"
        ) from None
    raise SglTypeError(f"unknown comparison operator {op!r}")


def _require_number(value: object, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SglTypeError(f"{what} requires a number, got {type(value).__name__}")
    return value


def _eval_binop(term: ast.BinOp, ctx: EvalContext) -> object:
    left = eval_term(term.left, ctx)
    right = eval_term(term.right, ctx)
    op = term.op
    if left is None or right is None:
        return None  # NULL propagation
    try:
        if op == "+":
            return left + right  # type: ignore[operator]
        if op == "-":
            return left - right  # type: ignore[operator]
        if op == "*":
            return left * right  # type: ignore[operator]
        if op == "/":
            return left / right  # type: ignore[operator]
        if op == "%":
            return left % right  # type: ignore[operator]
    except ZeroDivisionError:
        raise SglRuntimeError("division by zero") from None
    except TypeError:
        raise SglTypeError(
            f"cannot apply {op!r} to {type(left).__name__} and "
            f"{type(right).__name__}"
        ) from None
    raise SglTypeError(f"unknown operator {op!r}")


def _eval_call(term: ast.Call, ctx: EvalContext) -> object:
    name = term.name

    if name == "Random":
        return _eval_random(term, ctx)

    builtin = MATH_BUILTINS.get(name)
    if builtin is not None:
        args = [eval_term(a, ctx) for a in term.args]
        if any(a is None for a in args):
            return None  # NULL propagation
        try:
            return builtin(*args)
        except (TypeError, ValueError) as exc:
            raise SglTypeError(f"{name}: {exc}") from None

    aggregate = ctx.registry.aggregates.get(name) if ctx.registry else None
    if aggregate is not None:
        args = [eval_term(a, ctx) for a in term.args]
        if len(args) != len(aggregate.params):
            raise SglTypeError(
                f"{name} expects {len(aggregate.params)} args, got {len(args)}"
            )
        return ctx.agg_eval.evaluate(aggregate, args, ctx)

    raise SglNameError(f"unknown function {name!r}")


def _eval_random(term: ast.Call, ctx: EvalContext) -> int:
    """``Random(i)`` uses the current unit; ``Random(e, i)`` a given row.

    The paper requires ``Random(i)`` to be stable within a clock tick
    (Section 4.1); the engine satisfies this by deriving the value from
    (tick seed, unit key, i).
    """
    if len(term.args) == 1:
        if ctx.unit is None:
            raise SglRuntimeError("Random(i) used outside a unit context")
        row: Mapping[str, object] = ctx.unit
        index = eval_term(term.args[0], ctx)
    elif len(term.args) == 2:
        base = eval_term(term.args[0], ctx)
        if not isinstance(base, Mapping):
            raise SglTypeError("Random(e, i) requires a unit row")
        row = base
        index = eval_term(term.args[1], ctx)
    else:
        raise SglTypeError("Random takes one or two arguments")
    if not isinstance(index, (int, float)):
        raise SglTypeError("Random index must be a number")
    return ctx.rng(row, int(index))
