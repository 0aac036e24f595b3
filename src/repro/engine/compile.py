"""The SGL compiler: terms, conditions and scripts lowered to Python source.

The engine never walks an AST at tick time.  Script bodies, the per-probe
terms of aggregate and action shapes, index-build measures and filters
are each lowered once to Python source text -- one module per script,
shape or term, compiled once per distinct text -- and run as functions;
:mod:`repro.sgl.evalterm` and :mod:`repro.sgl.interp` stay as the
executable semantics that ``tests/engine/test_compile.py`` checks the
emitted code against, value for value and exception class for class.

Lowering is also the only script validator (:func:`repro.api.compile_script`).

**Frames and slots.**  Emitted code reads one *frame* ``f`` at a time.
Names are resolved while emitting (:class:`Scope`) to a frame slot, a
registry constant or an :class:`SglNameError`; unknown functions and
wrong arities are rejected then too, not when the node is first reached:

* *script frames* ``[rt, by_key, out_rows, out_aoe, params…, lets…]``,
  ``rt`` being the unit's :class:`~repro.sgl.evalterm.EvalContext`:
  every ``let`` (and hoisted call site) of a function owns a slot, and
  ``perform`` of a defined function builds the callee's frame;
* *probe frames* ``[rt, params…, e]`` for the terms of one built-in
  (:class:`Probe`, key-action effects, residual predicates);
* *row frames* are the environment row itself (``e`` names the frame):
  measures and build filters, called once per row by the indexes.

**What is emitted.**  A term or condition becomes straight-line
statements over locals: each slot it reads is loaded once per frame
(``s4 = f[4]``), each operator is one assignment, NULL propagation is an
inline ``None if … else``, and each operator that can fail has its own
``try`` mapping ``TypeError``/``ZeroDivisionError``/``KeyError`` to the
oracle's SGL error (free on the happy path).  A field read dominated by
the same read is reused.  :func:`compile_term` & co. emit one ``f ->
value`` function, a :class:`Probe` its columns as loops over a batch.

A script runs **set-at-a-time** (:func:`lower_script`) as one module
holding one function per *batch stage*, each looping over the frames of
every unit that reached it -- a ``let`` store, an ``if`` split into
taken/other, a hoisted call site's argument rows (then one
``evaluate_batch`` for the batch), a built-in ``perform``'s action calls
or a defined one's callee frames -- and one *driver* per script function
calling its stages in program order.  Calls in strict positions are
*hoisted* into a slot before the stage that reads them; a call under a
short-circuit operand (the right side of ``and``/``or``) stays per
frame, so no call runs for a frame that would not reach it.  Lowering
records each aggregate call site (:class:`CallSite`); EXPLAIN
(:func:`repro.api.explain_script`) shows them and the module's source.

**Injection.**  No text from a script reaches the emitted source:
numbers, strings, attribute names, functions and registry constants are
bound to generated global names (``k3``), slots are ``int`` literals,
operators come from the fixed tables below and every other identifier is
generated.  Spectators compile client-shipped query source this way.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Collection, Mapping
from dataclasses import dataclass, replace
from types import CodeType
from typing import Any, Callable, Sequence

from ..sgl import ast
from ..sgl.builtins import ActionFunction, AggregateFunction, FunctionRegistry
from ..sgl.errors import SglNameError, SglRuntimeError, SglTypeError
from ..sgl.evalterm import MATH_BUILTINS, math_error, random_index
from ..sgl.values import Vec, field_of

#: A compiled term or condition: ``frame -> value``.
Fn = Callable[[object], object]
#: A compiled built-in action: ``(rt, args, by_key, out_rows, out_aoe)``.
ActionFn = Callable[[object, list, object, list, list], None]

#: Script-frame slots ahead of the parameters: rt, by_key, out_rows, out_aoe.
_HEADER = 4

#: SGL operator -> the Python operator emitted for it.
_BINOPS = {"+": "+", "-": "-", "*": "*", "/": "/", "%": "%"}
_COMPARES = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _type_error(what: str, *values: object) -> SglTypeError:
    kinds = " and ".join(type(v).__name__ for v in values)
    return SglTypeError(f"cannot {what} {kinds}")


def _vector(*items: object) -> Vec:
    for item in items:
        if not isinstance(item, (int, float)) or isinstance(item, bool):
            raise _type_error("put in a vector literal a", item)
    return Vec(items)


def _random_row(rt, *row: object) -> object:
    """The row ``Random(e, i)`` draws for, or ``Random(i)``'s unit."""
    if not row:
        if rt.unit is None:
            raise SglRuntimeError("Random(i) used outside a unit context")
        return rt.unit
    if type(row[0]) is not dict and not isinstance(row[0], Mapping):
        raise SglTypeError("Random(e, i) requires a unit row")
    return row[0]


def _store_calls(fs: list, function: AggregateFunction, rows: list, slot: int):
    """Evaluate one hoisted call site for batch *fs* into frame *slot*."""
    if len(fs) == 1:  # a batch of one is a plain call
        f = fs[0]
        f[slot] = f[0].agg_eval.evaluate(function, rows[0], f[0])
        return
    values = fs[0][0].agg_eval.evaluate_batch(function, rows, [f[0] for f in fs])
    for f, value in zip(fs, values):
        f[slot] = value


#: A probe bound that is not a number, or lies beyond float range,
#: compares with rows only as the reference scan compares it:
#: :attr:`Probe.bounds` gives ``SCAN`` for its frame, and the caller
#: answers that frame by scanning.
SCAN = object()

#: The fixed globals of every emitted module.  Generated names are lower
#: case: ``f``/``fs`` a frame/batch, ``s<slot>``, ``t<n>`` temporaries,
#: ``k<n>`` bound values, ``g<n>`` stages, ``d<n>`` drivers, ``p<n>``
#: callee paddings, ``b<n>`` branch batches.
_RUNTIME = {
    "F": field_of,
    "NA": lambda attr: SglRuntimeError(f"unit has no attribute {attr!r}"),
    "TE": _type_error,
    "ZE": lambda: SglRuntimeError("division by zero"),
    "ME": math_error,
    "V": _vector,
    "RR": _random_row,
    "RI": random_index,
    "CS": _store_calls,
    "NX": math.nextafter,
    "INF": math.inf,
    "SCAN": SCAN,
}


class _Module:
    """The source text and globals of one emitted module."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.names: dict[str, Any] = dict(_RUNTIME)
        self.count = 0

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def const(self, value: object) -> str:
        """A generated global name bound to *value*."""
        name = self.fresh("k")
        self.names[name] = value
        return name

    def define(self, params: str, lines: Sequence[str]) -> str:
        """Emit ``def g(params)`` over *lines* (already indented)."""
        name = self.fresh("g")
        self.lines += [f"def {name}({params}):", *lines]
        return name

    def stage(self, body: _Body, each: str, head: str = "", tail: str = "") -> str:
        """Emit ``g(fs)``: *head*, then per frame ``f`` of the batch *body*
        and *each*, then *tail* (statements indented by one space)."""
        loop = [" for f in fs:", *body.indented("  "), f"  {each}"]
        return self.define("fs", [line for line in (head, *loop, tail) if line])

    def rows(self, body: _Body, row: str, tail: str = " return r") -> str:
        """Emit ``g(fs)`` collecting *row* per frame into ``r``."""
        return self.stage(body, f"r.append({row})", " r = []", tail)

    def build(self) -> dict[str, Any]:
        """Run the module's code; returns its globals."""
        self.text = "\n".join(self.lines) + "\n"
        # reprolint: disable=dynamic-code -- runs only _code's emitted text
        exec(_code(self.text), self.names)
        return self.names


@functools.lru_cache(maxsize=512)
def _code(text: str) -> CodeType:
    """An emitted module's code: each distinct text compiles only once."""
    # reprolint: disable=dynamic-code -- the SGL emitter: the text is
    # generated names, int literals and fixed operators, never script text
    return compile(text, "<sgl>", "exec")


@dataclass(frozen=True)
class Scope:
    """Compile-time name resolution for one frame layout: list frames
    map names to *slots* (the runtime record sits in slot 0); *row* names
    the frame itself (row frames: no ``Random``, no aggregate calls).
    *hoist*, when set, takes each call site in a strict position and
    returns the slot its batch-evaluated value lands in; *per_frame* is
    told of each call site that is not hoisted.  *unit* is ``(slot,
    attributes)``: a field read on that slot naming another attribute is
    an :class:`SglNameError`."""

    slots: Mapping[str, int]
    constants: Mapping[str, object]
    aggregates: Mapping[str, AggregateFunction]
    row: str | None = None
    hoist: Callable[[AggregateFunction, Sequence[ast.Term], Scope], int] | None = None
    per_frame: Callable[[AggregateFunction], None] | None = None
    unit: tuple[int, Collection[str]] | None = None


def row_scope(constants: Mapping[str, object]) -> Scope:
    """Scope of e-only terms: the frame is the row ``e``."""
    return Scope({}, constants, {}, row="e")


def frame_scope(names: Sequence[str], registry: FunctionRegistry, first=1) -> Scope:
    """Scope of a list frame holding *names* from slot *first* on."""
    slots = {name: first + i for i, name in enumerate(names)}
    return Scope(slots, registry.constants, registry.aggregates)


class _Body:
    """Statements evaluating terms and conditions for one frame ``f``,
    each returning the *atom* (a local or global name) of its value."""

    def __init__(self, module: _Module, scope: Scope):
        self.m = module
        self.scope = scope
        self.lines: list[str] = []
        self.pad = ""
        self.slots: set[int] = set()
        self.fields: dict[tuple[str, str], str] = {}  # (atom, attr) -> a read

    def emit(self, line: str) -> None:
        self.lines.append(self.pad + line)

    def indented(self, indent: str) -> list[str]:
        """The slot loads, then the statements, under *indent*."""
        lines = list(self.lines)
        if self.slots:
            lines.insert(0, "; ".join(f"s{n} = f[{n}]" for n in sorted(self.slots)))
        return [indent + line for line in lines]

    def nested(self, scope: Scope | None = None):
        """Enter a conditional block; returns what :meth:`leave` restores."""
        saved = (self.pad, self.fields, self.scope)
        self.pad += " "
        self.fields = dict(self.fields)  # reads in here dominate nothing after
        self.scope = scope or self.scope
        return saved

    def leave(self, saved) -> None:
        self.pad, self.fields, self.scope = saved

    def slot(self, n: int) -> str:
        self.slots.add(n)
        return f"s{n}"

    def assign(self, expr: str, operands: Sequence[str] = (), *handlers) -> str:
        """``t = expr``, NULL when an operand is; each handler is an
        ``(exception, raised)`` pair of its own ``except`` clause."""
        out = self.m.fresh("t")
        nullable = [f"{a} is None" for a in dict.fromkeys(operands) if a[0] in "st"]
        if nullable:
            expr = f"None if {' or '.join(nullable)} else {expr}"
        self.emit(f"try: {out} = {expr}" if handlers else f"{out} = {expr}")
        for exc, raised in handlers:
            self.emit(f"except {exc}: raise {raised} from None")
        return out

    def term(self, term: ast.Term) -> str:
        """Emit *term* with ``eval_term``'s semantics."""
        scope = self.scope
        if isinstance(term, (ast.Num, ast.Str)):
            return self.m.const(term.value)
        if isinstance(term, ast.Name):
            ident = term.ident
            if ident == scope.row:
                return "f"
            slot = scope.slots.get(ident)
            if slot is not None:
                return self.slot(slot)
            constant = scope.constants.get(ident)
            if constant is None:
                raise SglNameError(f"unbound name {ident!r}")
            return self.m.const(constant)
        if isinstance(term, ast.FieldAccess):
            return self.field(term)
        if isinstance(term, ast.Neg):
            a = self.term(term.operand)
            what = self.m.const("negate")
            return self.assign(f"-{a}", [a], ("TypeError", f"TE({what}, {a})"))
        if isinstance(term, ast.BinOp):
            op = _BINOPS.get(term.op)
            if op is None:
                raise SglTypeError(f"unknown operator {term.op!r}")
            a, b = self.term(term.left), self.term(term.right)
            what = self.m.const(f"apply {term.op!r} to")
            handlers = [("TypeError", f"TE({what}, {a}, {b})")]
            if op in "/%":
                handlers.insert(0, ("ZeroDivisionError", "ZE()"))
            return self.assign(f"{a} {op} {b}", [a, b], *handlers)
        if isinstance(term, ast.VecLit):
            items = [self.term(item) for item in term.items]
            return self.assign(f"V({', '.join(items)})", items)
        if isinstance(term, ast.Call):
            return self.call(term)
        raise SglTypeError(f"cannot compile {term!r} as a term")

    def field(self, term: ast.FieldAccess) -> str:
        base, unit = term.base, self.scope.unit
        if unit is not None and isinstance(base, ast.Name):
            if self.scope.slots.get(base.ident) == unit[0]:
                if term.attr not in unit[1]:
                    raise SglNameError(f"unit has no attribute {term.attr!r}")
        b = self.term(base)
        out = self.fields.get((b, term.attr))
        if out is None:
            out = self.fields[b, term.attr] = self.m.fresh("t")
            a = self.m.const(term.attr)
            self.emit(f"try: {out} = {b}[{a}] if type({b}) is dict else F({b}, {a})")
            self.emit(f"except KeyError: raise NA({a}) from None")
        return out

    def call(self, term: ast.Call) -> str:
        name, scope = term.name, self.scope
        builtin = MATH_BUILTINS.get(name)
        if builtin is None and scope.row is not None:
            raise SglTypeError(f"{name}: e-only terms cannot hold aggregates or Random")
        if name == "Random":
            return self.random(term.args)
        if builtin is not None:
            args = [self.term(a) for a in term.args]
            fn, label = self.m.const(builtin), self.m.const(name)
            failed = ("(TypeError, ValueError, OverflowError) as x", f"ME({label}, x)")
            return self.assign(f"{fn}({', '.join(args)})", args, failed)
        function = scope.aggregates.get(name)
        if function is None or len(term.args) != len(function.params):
            for arg in term.args:  # the arguments' own errors come first
                self.term(arg)
            if function is None:
                raise SglNameError(f"unknown function {name!r}")
            raise SglTypeError(f"{name} expects {len(function.params)} args")
        if scope.hoist is not None:
            return self.slot(scope.hoist(function, term.args, scope))
        args = [self.term(a) for a in term.args]
        if scope.per_frame is not None:
            scope.per_frame(function)
        rt = self.slot(0)
        fn = self.m.const(function)
        return self.assign(f"{rt}.agg_eval.evaluate({fn}, [{', '.join(args)}], {rt})")

    def random(self, args: Sequence[ast.Term]) -> str:
        """``Random(i)`` draws for the current unit, ``Random(e, i)`` for a row."""
        if len(args) not in (1, 2):
            raise SglTypeError("Random takes one or two arguments")
        rt = self.slot(0)
        row = self.assign(f"RR({', '.join([rt, *map(self.term, args[:-1])])})")
        return self.assign(f"{rt}.rng({row}, RI({self.term(args[-1])}))")

    def cond(self, cond: ast.Cond) -> str:
        """Emit *cond* with ``eval_cond``'s semantics."""
        if isinstance(cond, ast.BoolLit):
            return "True" if cond.value else "False"
        if isinstance(cond, ast.Not):
            return self.assign(f"not {self.cond(cond.operand)}")
        if isinstance(cond, (ast.And, ast.Or)):
            out = self.assign(self.cond(cond.left))
            self.emit(f"if {'' if isinstance(cond, ast.And) else 'not '}{out}:")
            # short-circuit operand: its calls are never hoisted
            saved = self.nested(replace(self.scope, hoist=None))
            self.emit(f"{out} = {self.cond(cond.right)}")
            self.leave(saved)
            return out
        if isinstance(cond, ast.Compare):
            op = _COMPARES.get(cond.op)
            if op is None:
                raise SglTypeError(f"unknown comparison operator {cond.op!r}")
            a, b = self.term(cond.left), self.term(cond.right)
            # NULL compares false under every operator
            tests = [f"{x} is not None" for x in dict.fromkeys((a, b)) if x[0] in "st"]
            expr = " and ".join([*tests, f"{a} {op} {b}"])
            if cond.op in ("=", "<>"):
                return self.assign(expr)
            what = self.m.const(f"compare ({cond.op})")
            return self.assign(expr, (), ("TypeError", f"TE({what}, {a}, {b})"))
        raise SglTypeError(f"cannot compile {cond!r} as a condition")

    def conjunction(self, conjuncts: Sequence[ast.Cond]) -> str:
        """Every conjunct in order; returns ``False`` at the first false one."""
        *init, last = conjuncts
        for cond in init:
            self.emit(f"if not {self.cond(cond)}: return False")
        return self.cond(last)

    def side(self, bounds: Sequence, lower: bool) -> str:
        """One side of a range constraint: its tightest bound as a float;
        ``None`` when some bound is NULL or NaN (either compares false
        with every row), ``SCAN`` when one is not a number or lies
        beyond float range.  A strict bound moves to the adjacent float
        inside."""
        out = self.m.fresh("t")
        if not bounds:
            self.emit(f"{out} = {'-INF' if lower else 'INF'}")
            return out
        outer = self.pad, self.fields, self.scope
        for i, bound in enumerate(bounds):
            v = self.term(bound.term)
            real = self.m.fresh("t")
            # ``+ 0.0`` makes an int or a bool (which compares as one) a
            # float; what cannot be added is left to the reference scan
            self.emit(f"try: {real} = None if {v} is None or {v} != {v} else {v} + 0.0")
            self.emit(f"except Exception: {real} = SCAN")
            if len(bounds) == 1 and not bound.strict:
                return real
            tightened = real
            if bound.strict:
                tightened = f"NX({real}, {'INF' if lower else '-INF'})"
            if i:
                tightened = f"{'max' if lower else 'min'}({out}, {tightened})"
            unusable = f"{real} is None or {real} is SCAN"
            if i == len(bounds) - 1:
                self.emit(f"{out} = {real} if {unusable} else {tightened}")
            else:
                self.emit(f"if {unusable}: {out} = {real}")
                self.emit("else:")
                self.nested()
                self.emit(f"{out} = {tightened}")
        self.leave(outer)
        return out


def _tuple(atoms: Sequence[str]) -> str:
    return f"({', '.join(atoms)}{',' if len(atoms) == 1 else ''})"


def _function(m: _Module, scope: Scope, node) -> str | None:
    """Emit ``g(f) -> value`` for *node*: a term, a condition, or a tuple
    of conjuncts (their conjunction; no function when it is empty)."""
    body = _Body(m, scope)
    if isinstance(node, ast.Term):
        result = body.term(node)
    elif isinstance(node, ast.Cond):
        result = body.cond(node)
    elif node:
        result = body.conjunction(node)
    else:
        return None
    return m.define("f", [*body.indented(" "), f" return {result}"])


def _compiled(node, scope: Scope):
    m = _Module()
    name = _function(m, scope, node)
    return None if name is None else m.build()[name]


def compile_term(term: ast.Term, scope: Scope) -> Fn:
    """Lower *term* to ``frame -> value`` with ``eval_term``'s semantics."""
    return _compiled(term, scope)


def compile_cond(cond: ast.Cond, scope: Scope) -> Fn:
    """Lower *cond* to ``frame -> truth`` with ``eval_cond``'s semantics."""
    return _compiled(cond, scope)


def compile_filter(conjuncts: Sequence[ast.Cond], scope: Scope) -> Fn | None:
    """Lower a conjunction of conditions; ``None`` when it is empty."""
    return _compiled(tuple(conjuncts), scope)


class Probe:
    """The per-probe terms of one classified built-in (an
    :class:`~repro.algebra.shapes.AggregateShape` or AoE ``ActionShape``)
    and its *extra* terms, conditions or conjunctions, in one module.
    Frames are ``[rt, *args, None]``; the last slot, :attr:`e_slot`, is
    ``e``.  Over a batch of frames, :attr:`cats` gives each frame's
    ``(equality, anti-join)`` category values and :attr:`bounds` its
    range constraints as closed ``[lo, hi]`` intervals, ``None`` as
    soon as one is empty (a NULL bound compares false with every row),
    or :data:`SCAN` when a bound is not a float-convertible number;
    :attr:`guard` is the u-only conjunction, :attr:`fns` the *extra*."""

    def __init__(self, shape, params: Sequence[str], registry, extra=()):
        scope = frame_scope((*params, "e"), registry)
        self.e_slot = len(params) + 1
        m = _Module()
        cats = bounds = None
        if shape.eq_cats or shape.neq_cats:
            body = _Body(m, scope)
            eq = [body.term(c.value_term) for c in shape.eq_cats]
            neq = [body.term(c.value_term) for c in shape.neq_cats]
            cats = m.rows(body, f"({_tuple(eq)}, {_tuple(neq)})")
        if shape.ranges:
            body = _Body(m, scope)
            pairs = []
            for constraint in shape.ranges:
                lo = body.side(constraint.lowers, lower=True)
                hi = body.side(constraint.uppers, lower=False)
                body.emit(
                    f"if {lo} is SCAN or {hi} is SCAN: r.append(SCAN); continue"
                )
                body.emit(
                    f"if {lo} is None or {hi} is None or {lo} > {hi}: "
                    "r.append(None); continue"
                )
                pairs.append(f"({lo}, {hi})")
            bounds = m.rows(body, _tuple(pairs))
        fns = [_function(m, scope, node) for node in (tuple(shape.u_only), *extra)]
        ns = m.build()
        self.cats = ns[cats] if cats else lambda fs: [((), ())] * len(fs)
        self.bounds = ns[bounds] if bounds else lambda fs: [()] * len(fs)
        self.guard, *self.fns = [None if fn is None else ns[fn] for fn in fns]


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
) -> tuple[Callable[[list, object], list[list]], tuple[CallSite, ...], str]:
    """Lower every function of *script* into one emitted module;
    *builtin_action* lowers one built-in action
    (:func:`repro.engine.decision.compile_action`).  Given the unit
    row's *attributes*, a field read on ``main``'s unit parameter (not
    rebound by a ``let``) naming another attribute is rejected.

    Returns ``(run, call_sites, source)``: ``run(rts, by_key)`` runs
    ``main`` over one batch, a unit per runtime record, and returns the
    batch's frames, whose ``out_rows``/``out_aoe`` hold each unit's
    effects in program order; each aggregate call site once, in lowering
    order; and the module's text, exactly as compiled."""
    main = script.main
    if len(main.params) != 1:
        raise SglTypeError(f"entry function {main.name!r} must take exactly the unit")
    lowering = _ScriptLowering(script, registry, builtin_action)
    unit = None if attributes is None else (_HEADER, frozenset(attributes))
    for fn in script.functions.values():
        lowering.function(fn, unit if fn is main else None)
    ns = lowering.module.build()
    driver, pad = (ns[name] for name in lowering.globals_of(main.name))

    def run(rts, by_key):
        frames = [[rt, by_key, [], [], rt.unit, *pad] for rt in rts]
        driver(frames)
        return frames

    return run, tuple(lowering.call_sites), lowering.module.text


class _ScriptLowering:
    """One script's module: its stages, and per script function a
    *driver* ``d(fs)`` calling them in program order over a batch."""

    def __init__(self, script, registry, builtin_action):
        self.script, self.registry = script, registry
        self.builtin_action = builtin_action
        self.module = _Module()
        #: function name -> its driver's and its let/call slot padding's
        #: globals, bound once lowered: definition order does not matter
        self.drivers: dict[str, tuple[str, str]] = {}
        self.actions: dict[str, str] = {}  # built-in action -> its global
        self.call_sites: list[CallSite] = []
        self.next_slot = 0
        self.current = ""  # the function being lowered

    def function(self, fn: ast.FunctionDef, unit) -> None:
        if not fn.params:
            raise SglTypeError(f"function {fn.name!r} needs a unit parameter")
        first_let = self.next_slot = _HEADER + len(fn.params)
        self.current = fn.name
        scope = replace(
            frame_scope(fn.params, self.registry, first=_HEADER),
            per_frame=lambda a: self.call_site(a, "per frame"),
            unit=unit,
        )
        lines: list[str] = []
        self.action(fn.body, scope, "fs", " ", lines)
        driver, pad = self.globals_of(fn.name)
        self.module.lines += [f"def {driver}(fs):", *(lines or [" pass"])]
        self.module.names[pad] = (None,) * (self.next_slot - first_let)

    def globals_of(self, name: str) -> tuple[str, str]:
        if name not in self.drivers:
            self.drivers[name] = (self.module.fresh("d"), self.module.fresh("p"))
        return self.drivers[name]

    def call_site(self, function: AggregateFunction, evaluation: str) -> None:
        self.call_sites.append(CallSite(self.current, function.name, evaluation))

    def new_slot(self) -> int:
        self.next_slot += 1
        return self.next_slot - 1

    def staged(self, scope: Scope) -> tuple[_Body, list[str]]:
        """A body for *scope* whose strict-position calls are hoisted:
        each call site becomes a stage of the returned list (inner calls
        first) that evaluates the call for the whole batch into a slot
        before the stage emitted from the body reads it."""
        stages: list[str] = []

        def hoist(function, args, inner):
            rows = _Body(self.module, inner)
            row = ", ".join([rows.term(arg) for arg in args])
            self.call_site(function, "hoisted")
            call = f" CS(fs, {self.module.const(function)}, r, {self.new_slot()})"
            stages.append(self.module.rows(rows, f"[{row}]", call))
            return self.next_slot - 1

        return _Body(self.module, replace(scope, hoist=hoist)), stages

    def action(self, node: ast.Action, scope: Scope, fs: str, pad: str, out: list):
        """Append to *out*, the driver's lines at indent *pad*, the stage
        calls running *node* over the batch named *fs*."""
        if isinstance(node, ast.Skip):
            return
        if isinstance(node, ast.Seq):
            self.action(node.first, scope, fs, pad, out)
            self.action(node.second, scope, fs, pad, out)
            return
        body, stages = self.staged(scope)
        if isinstance(node, ast.Let):
            value = body.term(node.term)
            if isinstance(node.term, ast.Call) and value[0] == "s":  # hoisted
                slot = int(value[1:])
            else:
                slot = self.new_slot()
                stages.append(self.module.stage(body, f"f[{slot}] = {value}"))
            out += [f"{pad}{stage}({fs})" for stage in stages]
            inner = replace(scope, slots={**scope.slots, node.name: slot})
            self.action(node.body, inner, fs, pad, out)
        elif isinstance(node, ast.If):
            cond = body.cond(node.cond)
            each = f"(a if {cond} else b).append(f)"
            split = self.module.stage(body, each, " a = []; b = []", " return a, b")
            taken, other = self.module.fresh("b"), self.module.fresh("b")
            out += [f"{pad}{stage}({fs})" for stage in stages]
            out.append(f"{pad}{taken}, {other} = {split}({fs})")
            for batch, branch in ((taken, node.then_branch), (other, node.else_branch)):
                lines: list[str] = []
                self.action(branch or ast.Skip(), scope, batch, pad + " ", lines)
                out += [f"{pad}if {batch}:", *lines] if lines else []
        elif isinstance(node, ast.Perform):
            callee = self.perform(node, body, stages)
            *hoisted, last = [f"{stage}({fs})" for stage in stages]
            out += [pad + call for call in hoisted]
            out.append(f"{pad}{callee}({last})" if callee else pad + last)
        else:
            raise SglTypeError(f"cannot compile {node!r} as an action")

    def perform(self, node: ast.Perform, body: _Body, stages: list[str]) -> str:
        """Append the stage running *node*: a built-in action's calls, or a
        defined function's callee frames -- then returns the callee's
        driver, which runs them."""
        name = node.name
        args = ", ".join([body.term(arg) for arg in node.args])
        callee = self.script.functions.get(name) or self.registry.actions.get(name)
        if callee is None:
            raise SglNameError(f"unknown action function {name!r}")
        if len(node.args) != len(callee.params):
            raise SglTypeError(f"{name} expects {len(callee.params)} args")
        rt, by_key, out_rows, out_aoe = [f"f[{i}]" for i in range(_HEADER)]
        if isinstance(callee, ast.FunctionDef):
            # defined functions see only their parameters
            driver, pad = self.globals_of(name)
            frame = f"[{rt}, {by_key}, {out_rows}, {out_aoe}, {args}, *{pad}]"
            stages.append(self.module.rows(body, frame))
            return driver
        if name not in self.actions:
            self.actions[name] = self.module.const(self.builtin_action(callee))
        action = self.actions[name]
        each = f"{action}({rt}, [{args}], {by_key}, {out_rows}, {out_aoe})"
        stages.append(self.module.stage(body, each))
        return ""
