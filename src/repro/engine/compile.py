"""The SGL compiler: terms, conditions and scripts lowered to closures.

The engine never walks an AST at tick time.  Script bodies, the per-probe
terms of aggregate and action shapes, index-build measures and filters
are each lowered once into plain closures by this module;
:mod:`repro.sgl.evalterm` and :mod:`repro.sgl.interp` stay as the
unoptimised executable semantics that ``tests/engine/test_compile.py``
checks every closure against, value for value and exception class for
exception class.

Lowering is also the only script validator: the engine lowers a script
before its first tick and :func:`repro.api.compile_script` lowers it to
accept it, so both reject the same scripts with the same errors (unknown
names and functions, wrong arities, a script function without a unit
parameter).  Given the schema, ``compile_script`` also rejects a field
read on the entry function's unit that the schema lacks.

A term or condition closure takes one argument, its *frame*.  Names are
resolved when the closure is built (:class:`Scope`) to a frame slot, a
registry constant (captured by value) or an :class:`SglNameError`;
unknown functions and wrong arities are rejected then too, not when the
node is first reached:

* *script frames* ``[rt, by_key, out_rows, out_aoe, params…, lets…]``:
  every ``let`` (and hoisted call site) of a function owns a slot, so
  binding is a list store, and ``perform`` of a defined function builds
  the callee's frame;
* *probe frames* ``[rt, params…, e]`` for the terms of one built-in
  (:class:`Probe`, key-action effects, residual predicates);
* *row frames* are the environment row itself (``e`` names the frame):
  measures and build filters, called once per row by the indexes.

``rt`` is the runtime record of the frame's unit -- an
:class:`~repro.sgl.evalterm.EvalContext` with empty bindings and
``unit`` set -- read only by ``Random``, aggregate call sites, native
functions and the scan fallback.

Scripts run **set-at-a-time** (:func:`lower_script`): an action closure
takes a *batch* -- the list of script frames of every unit that reached
it -- so each aggregate call site goes to the evaluator once per batch
(``rt.agg_eval.evaluate_batch``).  A ``let`` stores one value per frame,
an ``if`` splits the batch into the frames that take each branch, a
``perform`` of a defined function builds the callee frames of the
batch, and built-in actions run per frame into the frame's own
``out_rows``/``out_aoe`` buffers.  Calls in strict positions of a term
or condition are *hoisted*: evaluated for the whole batch into a frame
slot before the per-frame closure reads it (:attr:`Scope.hoist`).  A
call under a short-circuit operand (the right side of ``and``/``or``)
stays per frame, so no call is evaluated for a frame that would not
reach it.  The lowering records each aggregate call site once, as it
lowers it (:class:`CallSite`); EXPLAIN (:func:`repro.api.explain_script`)
prints those records, so it shows exactly what the engine runs.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Collection, Mapping
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ..sgl import ast
from ..sgl.builtins import ActionFunction, AggregateFunction, FunctionRegistry
from ..sgl.errors import SglNameError, SglRuntimeError, SglTypeError
from ..sgl.evalterm import MATH_BUILTINS
from ..sgl.values import Vec, field_of

#: A compiled term or condition: ``frame -> value``.
Fn = Callable[[object], object]
#: A compiled script action: runs over a batch (list) of script frames.
BatchFn = Callable[[list], None]
#: A compiled built-in action: ``(rt, args, by_key, out_rows, out_aoe)``.
ActionFn = Callable[[object, list, object, list, list], None]
#: Script lowering's call-site hook: ``(function, args_of) ->`` the
#: per-frame reader of the call's batch-evaluated value.
Hoist = Callable[[AggregateFunction, Callable[[object], list]], Fn]

_INF = float("inf")

#: Script-frame slots ahead of the parameters: rt, by_key, out_rows, out_aoe.
_HEADER = 4

_BINOPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,
}  # fmt: skip
_COMPARES = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}  # fmt: skip


def _type_error(what: str, *values: object) -> SglTypeError:
    kinds = " and ".join(type(v).__name__ for v in values)
    return SglTypeError(f"cannot {what} {kinds}")


@dataclass(frozen=True)
class Scope:
    """Compile-time name resolution for one frame layout: list frames
    map names to *slots* (the runtime record sits in slot 0); *row* names
    the frame itself (row frames: no ``Random``, no aggregate calls).

    *hoist*, when set, takes each aggregate call site in a strict
    position -- ``(function, args_of)`` -- and returns the per-frame
    closure that reads its batch-evaluated value; *per_frame*, when set,
    is told of each call site that is not hoisted (script lowering).
    *unit*, when set, is ``(slot, attributes)``: the slot holding the
    unit row and the attributes that row has, so a field read on that
    slot naming another attribute is an :class:`SglNameError`."""

    slots: Mapping[str, int]
    constants: Mapping[str, object]
    aggregates: Mapping[str, AggregateFunction]
    row: str | None = None
    hoist: Hoist | None = None
    per_frame: Callable[[AggregateFunction], None] | None = None
    unit: tuple[int, Collection[str]] | None = None


def row_scope(constants: Mapping[str, object]) -> Scope:
    """Scope of e-only terms: the frame is the row ``e``."""
    return Scope({}, constants, {}, row="e")


def frame_scope(
    names: Sequence[str], registry: FunctionRegistry, first: int = 1
) -> Scope:
    """Scope of a list frame holding *names* from slot *first* on."""
    slots = {name: first + i for i, name in enumerate(names)}
    return Scope(slots, registry.constants, registry.aggregates)


def compile_term(term: ast.Term, scope: Scope) -> Fn:
    """Lower *term* to ``frame -> value`` with ``eval_term``'s semantics."""
    if isinstance(term, (ast.Num, ast.Str)):
        value = term.value
        return lambda f: value
    if isinstance(term, ast.Name):
        ident = term.ident
        if ident == scope.row:
            return lambda f: f
        slot = scope.slots.get(ident)
        if slot is not None:
            return lambda f: f[slot]
        constant = scope.constants.get(ident)
        if constant is None:
            raise SglNameError(f"unbound name {ident!r}")
        return lambda f: constant
    if isinstance(term, ast.FieldAccess):
        return _compile_field(term, scope)
    if isinstance(term, ast.Neg):
        operand = compile_term(term.operand, scope)

        def neg(f):
            value = operand(f)
            if value is None:
                return None  # NULL propagation
            try:
                return -value
            except TypeError:
                raise _type_error("negate", value) from None

        return neg
    if isinstance(term, ast.BinOp):
        return _compile_binop(term, scope)
    if isinstance(term, ast.VecLit):
        items_of = compile_args(term.items, scope)

        def vec(f):
            items = items_of(f)
            if None in items:
                return None  # NULL propagation
            for item in items:
                if not isinstance(item, (int, float)) or isinstance(item, bool):
                    raise _type_error("put in a vector literal a", item)
            return Vec(items)

        return vec
    if isinstance(term, ast.Call):
        return _compile_call(term, scope)
    raise SglTypeError(f"cannot compile {term!r} as a term")


def _compile_field(term: ast.FieldAccess, scope: Scope) -> Fn:
    attr = term.attr
    base = term.base
    ident = base.ident if isinstance(base, ast.Name) else None
    slot = scope.slots.get(ident)
    if slot is None and (ident is None or ident != scope.row):
        inner = compile_term(base, scope)
        return lambda f: field_of(inner(f), attr)
    if scope.unit is not None and slot == scope.unit[0]:
        if attr not in scope.unit[1]:
            raise SglNameError(f"unit has no attribute {attr!r}")

    def field(f):
        value = f if slot is None else f[slot]
        if type(value) is dict:  # a unit row: skip field_of's dispatch
            try:
                return value[attr]
            except KeyError:
                raise SglRuntimeError(
                    f"unit has no attribute {attr!r}"
                ) from None
        return field_of(value, attr)

    return field


def _compile_binop(term: ast.BinOp, scope: Scope) -> Fn:
    symbol = term.op
    op = _BINOPS.get(symbol)
    if op is None:
        raise SglTypeError(f"unknown operator {symbol!r}")
    left = compile_term(term.left, scope)
    right = compile_term(term.right, scope)

    def binop(f):
        a = left(f)
        b = right(f)
        if a is None or b is None:
            return None  # NULL propagation
        try:
            return op(a, b)
        except ZeroDivisionError:
            raise SglRuntimeError("division by zero") from None
        except TypeError:
            raise _type_error(f"apply {symbol!r} to", a, b) from None

    return binop


def _compile_call(term: ast.Call, scope: Scope) -> Fn:
    name = term.name
    builtin = MATH_BUILTINS.get(name)
    if builtin is None and scope.row is not None:
        raise SglTypeError(
            f"{name}: e-only terms cannot contain aggregates or Random"
        )
    if name == "Random":
        return _compile_random([compile_term(a, scope) for a in term.args])
    args_of = compile_args(term.args, scope)
    if builtin is not None:

        def math_call(f):
            args = args_of(f)
            if None in args:
                return None  # NULL propagation
            try:
                return builtin(*args)
            except (TypeError, ValueError) as exc:
                raise SglTypeError(f"{name}: {exc}") from None

        return math_call
    function = scope.aggregates.get(name)
    if function is None:
        raise SglNameError(f"unknown function {name!r}")
    if len(term.args) != len(function.params):
        raise SglTypeError(f"{name} expects {len(function.params)} args")
    if scope.hoist is not None:
        return scope.hoist(function, args_of)
    if scope.per_frame is not None:
        scope.per_frame(function)

    def aggregate_call(f):
        rt = f[0]
        return rt.agg_eval.evaluate(function, args_of(f), rt)

    return aggregate_call


def _compile_random(arg_fns: list[Fn]) -> Fn:
    """``Random(i)`` draws for the current unit, ``Random(e, i)`` for a row."""
    if len(arg_fns) not in (1, 2):
        raise SglTypeError("Random takes one or two arguments")
    index_of = arg_fns[-1]
    row_of = arg_fns[0] if len(arg_fns) == 2 else None

    def random(f):
        rt = f[0]
        if row_of is None:
            row = rt.unit
            if row is None:
                raise SglRuntimeError("Random(i) used outside a unit context")
        else:
            row = row_of(f)
            if type(row) is not dict and not isinstance(row, Mapping):
                raise SglTypeError("Random(e, i) requires a unit row")
        index = index_of(f)
        if not isinstance(index, (int, float)):
            raise SglTypeError("Random index must be a number")
        return rt.rng(row, int(index))

    return random


def compile_args(
    terms: Sequence[ast.Term], scope: Scope
) -> Callable[[object], list]:
    """Lower *terms* to ``frame -> [values]``, unrolled for small arities."""
    fns = [compile_term(term, scope) for term in terms]
    if len(fns) == 0:
        return lambda f: []
    if len(fns) == 1:
        (a,) = fns
        return lambda f: [a(f)]
    if len(fns) == 2:
        a, b = fns
        return lambda f: [a(f), b(f)]
    return lambda f: [fn(f) for fn in fns]


def compile_cond(cond: ast.Cond, scope: Scope) -> Fn:
    """Lower *cond* to ``frame -> truth`` with ``eval_cond``'s semantics."""
    if isinstance(cond, ast.BoolLit):
        value = cond.value
        return lambda f: value
    if isinstance(cond, ast.Not):
        operand = compile_cond(cond.operand, scope)
        return lambda f: not operand(f)
    if isinstance(cond, (ast.And, ast.Or)):
        left = compile_cond(cond.left, scope)
        # short-circuit operand: its calls are never hoisted
        right = compile_cond(cond.right, replace(scope, hoist=None))
        if isinstance(cond, ast.And):
            return lambda f: left(f) and right(f)
        return lambda f: left(f) or right(f)
    if isinstance(cond, ast.Compare):
        symbol = cond.op
        op = _COMPARES.get(symbol)
        if op is None:
            raise SglTypeError(f"unknown comparison operator {symbol!r}")
        lhs = compile_term(cond.left, scope)
        rhs = compile_term(cond.right, scope)

        def compare(f):
            a = lhs(f)
            b = rhs(f)
            if a is None or b is None:
                return False  # NULL compares false under every operator
            try:
                return op(a, b)
            except TypeError:
                raise _type_error(f"compare ({symbol})", a, b) from None

        return compare
    raise SglTypeError(f"cannot compile {cond!r} as a condition")


def compile_filter(conjuncts: Sequence[ast.Cond], scope: Scope) -> Fn | None:
    """Lower a conjunction of conditions; ``None`` when it is empty."""
    preds = [compile_cond(c, scope) for c in conjuncts]
    if not preds:
        return None
    if len(preds) == 1:
        return preds[0]

    def conjunction(f):
        for pred in preds:
            if not pred(f):
                return False
        return True

    return conjunction


class Probe:
    """The per-probe terms of one classified built-in (an
    :class:`~repro.algebra.shapes.AggregateShape` or AoE ``ActionShape``),
    lowered once.  Frames are ``[rt, *args, None]``: the last slot,
    :attr:`e_slot`, is ``e`` -- ``None`` until a caller stores a
    candidate row there for row-level closures."""

    def __init__(self, shape, params: Sequence[str], registry: FunctionRegistry):
        self.scope = scope = frame_scope((*params, "e"), registry)
        self.e_slot = len(params) + 1
        #: u-only conjuncts: when false the selection is empty.
        self.guard = compile_filter(shape.u_only, scope)
        self._eq = eq = [
            compile_term(c.value_term, scope) for c in shape.eq_cats
        ]
        self._neq = neq = [
            compile_term(c.value_term, scope) for c in shape.neq_cats
        ]
        #: ``frame ->`` the probe's (equality, anti-join) category values.
        self.cats = lambda f: (
            tuple([t(f) for t in eq]),
            tuple([t(f) for t in neq]),
        )
        self._ranges = [
            (
                _compile_side(constraint.lowers, scope, max, -_INF),
                _compile_side(constraint.uppers, scope, min, _INF),
            )
            for constraint in shape.ranges
        ]

    def bounds(self, f: list) -> list[tuple[float, float]] | None:
        """Each range constraint as a closed ``[lo, hi]`` interval;
        ``None`` as soon as some interval is empty -- a NULL bound
        compares false with every row, so it empties its interval."""
        out: list[tuple[float, float]] = []
        for lower, upper in self._ranges:
            lo = lower(f)
            hi = upper(f)
            if lo is None or hi is None or lo > hi:
                return None
            out.append((lo, hi))
        return out

    def cats_many(self, frames: list) -> list[tuple[tuple, tuple]]:
        """:attr:`cats` of every frame, one category column at a time."""
        return list(zip(_rows(self._eq, frames), _rows(self._neq, frames)))

    def bounds_many(self, frames: list) -> list:
        """:meth:`bounds` of every frame, one range column at a time.
        As soon as some frame's interval is empty, every frame goes
        through :meth:`bounds`, which stops at its first empty one."""
        columns = []
        for lower, upper in self._ranges:
            pairs = list(zip(map(lower, frames), map(upper, frames)))
            for lo, hi in pairs:
                if lo is None or hi is None or lo > hi:
                    return [self.bounds(f) for f in frames]
            columns.append(pairs)
        return list(zip(*columns)) if columns else [()] * len(frames)


def _rows(fns: list[Fn], frames: list) -> list[tuple]:
    """Per frame, the tuple of *fns* applied to it (frame by frame)."""
    if not fns:
        return [()] * len(frames)
    return list(zip(*[map(fn, frames) for fn in fns]))


def _compile_side(bounds, scope: Scope, pick, unbounded: float) -> Fn:
    """One side of a range constraint: ``frame ->`` its tightest bound,
    or ``None`` when some bound is NULL or NaN (the interval is then
    empty: either compares false with every row).  Strict bounds move
    to the adjacent float inside the interval, which is exact for the
    values actually stored in an index."""
    terms = [(compile_term(b.term, scope), b.strict) for b in bounds]
    if len(terms) == 1 and not terms[0][1]:
        only = terms[0][0]

        def single(f):
            value = only(f)
            if value is None or value != value:
                return None
            return pick(unbounded, float(value))

        return single

    def side(f):
        best = unbounded
        for term, strict in terms:
            value = term(f)
            if value is None or value != value:
                return None
            value = float(value)
            if strict:
                value = math.nextafter(value, -unbounded)
            best = pick(best, value)
        return best

    return side


@dataclass(frozen=True)
class CallSite:
    """One aggregate call site of a script, as lowered: in script
    function *function*, a call of *aggregate*, evaluated ``"hoisted"``
    (one ``evaluate_batch`` per batch) or ``"per frame"`` (under a
    short-circuit operand)."""

    function: str
    aggregate: str
    evaluation: str


def lower_script(
    script: ast.Script,
    registry: FunctionRegistry,
    builtin_action: Callable[[ActionFunction], ActionFn],
    attributes: Collection[str] | None = None,
) -> tuple[Callable[[list, object], list[list]], tuple[CallSite, ...]]:
    """Lower every function of *script* to batch closures;
    *builtin_action* lowers one built-in action
    (:func:`repro.engine.decision.compile_action`).  Given the unit
    row's *attributes*, a field read on ``main``'s unit parameter (not
    rebound by a ``let``) naming another attribute is rejected.

    Returns ``(run, call_sites)``.  ``run(rts, by_key)`` runs ``main``
    over one batch, a unit per runtime record (``rt.unit``), and
    returns the batch's script frames, whose ``out_rows``/``out_aoe``
    slots hold each unit's effects in per-unit program order.
    *call_sites* lists every aggregate call site once, in lowering
    order."""
    main = script.main
    if len(main.params) != 1:
        raise SglTypeError(
            f"entry function {main.name!r} must take exactly the unit"
        )
    lowering = _ScriptLowering(script, registry, builtin_action)
    unit = None if attributes is None else (_HEADER, frozenset(attributes))
    for fn in script.functions.values():
        lowering.function(fn, unit if fn is main else None)
    body, pad = lowering.bodies[main.name]

    def run(rts, by_key):
        frames = [[rt, by_key, [], [], rt.unit, *pad] for rt in rts]
        body(frames)
        return frames

    return run, tuple(lowering.call_sites)


def _skip(fs: list) -> None:
    return None


class _ScriptLowering:
    def __init__(self, script, registry, builtin_action):
        self.script = script
        self.registry = registry
        self.builtin_action = builtin_action
        #: function name -> (body, padding for its let and call slots);
        #: looked up at call time, so definition order and recursion do
        #: not matter
        self.bodies: dict[str, tuple[BatchFn, tuple]] = {}
        self.actions: dict[str, ActionFn] = {}
        self.call_sites: list[CallSite] = []
        self.next_slot = 0
        self.current = ""  # the function being lowered

    def function(
        self, fn: ast.FunctionDef, unit: tuple[int, Collection[str]] | None
    ) -> None:
        if not fn.params:
            raise SglTypeError(f"function {fn.name!r} needs a unit parameter")
        first_let = self.next_slot = _HEADER + len(fn.params)
        self.current = fn.name
        scope = frame_scope(fn.params, self.registry, first=_HEADER)
        body = self.action(
            fn.body,
            replace(
                scope,
                per_frame=lambda a: self.call_site(a, "per frame"),
                unit=unit,
            ),
        )
        self.bodies[fn.name] = (body, (None,) * (self.next_slot - first_let))

    def call_site(self, function: AggregateFunction, evaluation: str) -> None:
        self.call_sites.append(CallSite(self.current, function.name, evaluation))

    def staged(self, compile_node, node, scope: Scope) -> tuple[BatchFn, Fn]:
        """Compile *node* per frame, every aggregate call in a strict
        position hoisted into a frame slot.  Returns ``(stage, fn)``:
        ``stage(fs)`` fills those slots for a batch, one
        ``evaluate_batch`` per call site (inner calls first), then
        ``fn`` runs per frame."""
        stages: list[BatchFn] = []

        def hoist(function, args_of):
            self.call_site(function, "hoisted")
            slot = self.next_slot
            self.next_slot += 1

            def call_site(fs):
                if len(fs) == 1:  # a batch of one is a plain call
                    f = fs[0]
                    rt = f[0]
                    f[slot] = rt.agg_eval.evaluate(function, args_of(f), rt)
                    return
                values = fs[0][0].agg_eval.evaluate_batch(
                    function, [args_of(f) for f in fs], [f[0] for f in fs]
                )
                for f, value in zip(fs, values):
                    f[slot] = value

            stages.append(call_site)
            return lambda f: f[slot]

        fn = compile_node(node, replace(scope, hoist=hoist))

        def stage(fs):
            for call_site in stages:
                call_site(fs)

        return stage, fn

    def action(self, node: ast.Action, scope: Scope) -> BatchFn:
        if isinstance(node, ast.Skip):
            return _skip
        if isinstance(node, ast.Let):
            stage, term = self.staged(compile_term, node.term, scope)
            slot = self.next_slot
            self.next_slot += 1
            inner = replace(scope, slots={**scope.slots, node.name: slot})
            body = self.action(node.body, inner)

            def let(fs):
                stage(fs)
                for f in fs:
                    f[slot] = term(f)
                body(fs)

            return let
        if isinstance(node, ast.Seq):
            first = self.action(node.first, scope)
            second = self.action(node.second, scope)

            def seq(fs):
                first(fs)
                second(fs)

            return seq
        if isinstance(node, ast.If):
            stage, cond = self.staged(compile_cond, node.cond, scope)
            then = self.action(node.then_branch, scope)
            orelse = self.action(node.else_branch or ast.Skip(), scope)

            def branch(fs):
                stage(fs)
                taken: list = []
                other: list = []
                for f in fs:
                    (taken if cond(f) else other).append(f)
                if taken:
                    then(taken)
                if other:
                    orelse(other)

            return branch
        if isinstance(node, ast.Perform):
            return self.perform(node, scope)
        raise SglTypeError(f"cannot compile {node!r} as an action")

    def perform(self, node: ast.Perform, scope: Scope) -> BatchFn:
        name = node.name
        stage, args_of = self.staged(compile_args, node.args, scope)
        callee = self.script.functions.get(name) or self.registry.actions.get(
            name
        )
        if callee is None:
            raise SglNameError(f"unknown action function {name!r}")
        if len(node.args) != len(callee.params):
            raise SglTypeError(f"{name} expects {len(callee.params)} args")
        if isinstance(callee, ast.FunctionDef):
            bodies = self.bodies

            def call(fs):
                stage(fs)
                # defined functions see only their parameters
                body, pad = bodies[name]
                body([[*f[:_HEADER], *args_of(f), *pad] for f in fs])

            return call
        action = self.actions.get(name)
        if action is None:
            action = self.actions[name] = self.builtin_action(callee)

        def perform(fs):
            stage(fs)
            for f in fs:
                action(f[0], args_of(f), f[1], f[2], f[3])

        return perform
