"""Abstract syntax trees for SGL (Section 4.1).

The grammar of action functions is::

    action ::= (let name = term) action
             | action ; action
             | if cond then action [else action]
             | perform name(term, ...)

Conditions are boolean combinations of comparisons between terms; terms
are arithmetic over constants, unit attributes, ``Random(i)``, aggregate
function calls, and 2-d vector literals ``(t1, t2)`` (used by Figure 3's
``away_vector``).

All nodes are frozen dataclasses so that parsed scripts are immutable
and can safely be shared between the reference interpreter and the
compiler (:mod:`repro.engine.compile`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """Base class of term nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Term):
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Str(Term):
    value: str

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Name(Term):
    """A bare identifier: a let-binding, function parameter, or constant."""

    ident: str

    def __str__(self) -> str:
        return self.ident


@dataclass(frozen=True)
class FieldAccess(Term):
    """``base.field`` -- attribute access on a unit tuple or record."""

    base: Term
    attr: str

    def __str__(self) -> str:
        return f"{self.base}.{self.attr}"


@dataclass(frozen=True)
class BinOp(Term):
    """Arithmetic: ``+ - * / %``."""

    op: str
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Neg(Term):
    operand: Term

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True)
class Call(Term):
    """A function call: aggregate, math builtin, or ``Random``.

    Which of those it is gets resolved against the
    :class:`~repro.sgl.builtins.FunctionRegistry` when the script is
    lowered; the parser cannot tell them apart syntactically.
    """

    name: str
    args: tuple[Term, ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class VecLit(Term):
    """A vector literal ``(t1, t2, ...)`` as used in Figure 3."""

    items: tuple[Term, ...]

    def __str__(self) -> str:
        return f"({', '.join(map(str, self.items))})"


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------


class Cond:
    """Base class of condition nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Compare(Cond):
    """Atomic condition: comparison of two terms with ``= < <= > >= <>``."""

    op: str
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Cond):
    left: Cond
    right: Cond

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class Or(Cond):
    left: Cond
    right: Cond

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class Not(Cond):
    operand: Cond

    def __str__(self) -> str:
        return f"(not {self.operand})"


@dataclass(frozen=True)
class BoolLit(Cond):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


class Action:
    """Base class of action-function body nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Skip(Action):
    """The empty action; returns the empty effect table.

    Not writable in surface syntax, but produced by normalisation (e.g.
    an ``if`` with no ``else`` is ``if c then a else skip`` semantically).
    """

    def __str__(self) -> str:
        return "skip"


@dataclass(frozen=True)
class Let(Action):
    """``(let name = term) body`` -- extend the current unit record."""

    name: str
    term: Term
    body: Action

    def __str__(self) -> str:
        return f"(let {self.name} = {self.term}) {self.body}"


@dataclass(frozen=True)
class Seq(Action):
    """``a1; a2`` -- both run on the same input; results combine by ⊕."""

    first: Action
    second: Action

    def __str__(self) -> str:
        return f"{self.first}; {self.second}"


@dataclass(frozen=True)
class If(Action):
    """``if cond then a [else b]``.

    Per Section 4.3, ``if c then a else b`` is sugar for
    ``if c then a; if not c then b``; the parser preserves the ``else``
    branch and normalisation may expand it.
    """

    cond: Cond
    then_branch: Action
    else_branch: Optional[Action] = None

    def __str__(self) -> str:
        s = f"if {self.cond} then {{ {self.then_branch} }}"
        if self.else_branch is not None:
            s += f" else {{ {self.else_branch} }}"
        return s


@dataclass(frozen=True)
class Perform(Action):
    """``perform Name(args)`` -- invoke a built-in or defined action fn."""

    name: str
    args: tuple[Term, ...]

    def __str__(self) -> str:
        return f"perform {self.name}({', '.join(map(str, self.args))})"


# ---------------------------------------------------------------------------
# Top-level
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionDef:
    """A named action function; the first parameter binds the unit tuple."""

    name: str
    params: tuple[str, ...]
    body: Action

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.params)}) {{ {self.body} }}"


@dataclass(frozen=True)
class Script:
    """A compiled SGL script: a set of action functions with entry ``main``."""

    functions: dict[str, FunctionDef] = field(default_factory=dict)
    entry: str = "main"

    def __post_init__(self) -> None:
        if self.entry not in self.functions:
            raise ValueError(f"script has no entry function {self.entry!r}")

    @property
    def main(self) -> FunctionDef:
        return self.functions[self.entry]


TermLike = Union[Term, Cond]


def walk_terms(node: Union[Term, Cond, Action]) -> list[Term]:
    """All term nodes reachable from *node* (the compiler's differential
    tests read the names and calls of a term or script off it)."""
    out: list[Term] = []
    stack: list[Union[Term, Cond, Action]] = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Term):
            out.append(cur)
        if isinstance(cur, (Num, Str, Name, Skip, BoolLit)):
            continue
        if isinstance(cur, FieldAccess):
            stack.append(cur.base)
        elif isinstance(cur, BinOp):
            stack.extend((cur.left, cur.right))
        elif isinstance(cur, Neg):
            stack.append(cur.operand)
        elif isinstance(cur, Call):
            stack.extend(cur.args)
        elif isinstance(cur, VecLit):
            stack.extend(cur.items)
        elif isinstance(cur, Compare):
            stack.extend((cur.left, cur.right))
        elif isinstance(cur, (And, Or)):
            stack.extend((cur.left, cur.right))
        elif isinstance(cur, Not):
            stack.append(cur.operand)
        elif isinstance(cur, Let):
            stack.extend((cur.term, cur.body))
        elif isinstance(cur, Seq):
            stack.extend((cur.first, cur.second))
        elif isinstance(cur, If):
            stack.extend((cur.cond, cur.then_branch))
            if cur.else_branch is not None:
                stack.append(cur.else_branch)
        elif isinstance(cur, Perform):
            stack.extend(cur.args)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown node {cur!r}")
    return out
