"""Classification of aggregate specs into indexable shapes (Section 5.3).

"Our choice of index structure does not just depend on agg.  It also
depends on the selection σφ."  This module performs that analysis
statically, once per aggregate function: it splits the WHERE conjuncts
of an Eq.-(5) spec by what they reference and solves join conjuncts into
per-attribute constraints, then matches the (constraints, outputs) pair
against the index strategies of Sections 5.3.1/5.3.2:

* ``divisible`` -- moment aggregates over orthogonal ranges → hash
  layers + the prefix-aggregate range tree of Figure 8;
* ``extreme``   -- min/max/argmin/argmax of a unit attribute over an
  orthogonal box → the sweep-line of Figure 9 (grouped by constant
  range extents);
* ``nearest``   -- argmin of a squared-distance term → kD-tree
  (Section 5.3.2), residual conjuncts become search predicates;
* ``fallback``  -- anything else → partitioned scan (still benefits
  from categorical hash layers).

Conjunct classes:

* **eq-cat**: ``e.attr = term(u)`` → hash-layer levels;
* **range**:  ``e.attr ⋛ term(u)`` (after solving linear forms like
  ``u.posx - e.posx < r`` and expanding ``abs(t) < r``) → tree levels;
* **e-only**: reference ``e`` alone → filters applied at index build;
* **u-only**: reference the probing unit alone → evaluated per probe
  ("this particular selection can be pushed into the index nested loop
  join"); when false the selection is empty;
* **residual**: everything else → per-row predicates; they demote
  divisible/extreme shapes to fallback but merely slow down nearest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from ..indexes.divisible import MOMENT_AGGREGATES
from ..sgl import ast
from ..sgl.sqlspec import AggOutput, SqlActionSpec, SqlAggregateSpec

ShapeKind = Literal["divisible", "extreme", "nearest", "fallback"]


# ---------------------------------------------------------------------------
# Constraint forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqConstraint:
    """``e.attr = value_term`` with *value_term* free of ``e``."""

    attr: str
    value_term: ast.Term


@dataclass(frozen=True)
class NeqConstraint:
    """``e.attr <> value_term`` -- an anti-join on a categorical attribute.

    With few distinct values (two players, three unit types -- the
    paper's own experimental setup), probing "all groups but one" of a
    hash layer is how ``e.player <> u.player`` keeps index support.
    """

    attr: str
    value_term: ast.Term


@dataclass(frozen=True)
class Bound:
    """One side of a range constraint; *term* is free of ``e``."""

    term: ast.Term
    strict: bool


@dataclass(frozen=True)
class RangeConstraint:
    """Conjunction of lower/upper bounds on one ``e`` attribute."""

    attr: str
    lowers: tuple[Bound, ...] = ()
    uppers: tuple[Bound, ...] = ()


@dataclass(frozen=True)
class AggregateShape:
    """The complete indexing plan for one aggregate function."""

    kind: ShapeKind
    eq_cats: tuple[EqConstraint, ...] = ()
    neq_cats: tuple[NeqConstraint, ...] = ()
    ranges: tuple[RangeConstraint, ...] = ()
    e_only: tuple[ast.Cond, ...] = ()
    u_only: tuple[ast.Cond, ...] = ()
    residual: tuple[ast.Cond, ...] = ()
    outputs: tuple[AggOutput, ...] = ()
    # nearest: the probe point, as u-terms per position attribute
    nearest_attrs: tuple[str, str] | None = None
    nearest_centers: tuple[ast.Term, ast.Term] | None = None
    # all categorical partition attributes in hash-layer order
    # (equality levels first, then anti-join levels)
    cat_attrs: tuple[str, ...] = ()
    # extreme: min or max of value_term (an e-only term)
    extreme_kind: Literal["min", "max"] | None = None
    extreme_value: ast.Term | None = None
    returns_row: bool = False  # argmin/argmax return the whole unit row

    @property
    def range_attrs(self) -> tuple[str, ...]:
        return tuple(r.attr for r in self.ranges)


# ---------------------------------------------------------------------------
# Reference analysis
# ---------------------------------------------------------------------------


def _refs(term: ast.Term | ast.Cond, out: set[str]) -> None:
    if isinstance(term, ast.Name):
        out.add(term.ident)
    elif isinstance(term, ast.FieldAccess):
        _refs(term.base, out)
    elif isinstance(term, ast.BinOp):
        _refs(term.left, out)
        _refs(term.right, out)
    elif isinstance(term, ast.Neg):
        _refs(term.operand, out)
    elif isinstance(term, (ast.Call, ast.VecLit)):
        for a in term.args if isinstance(term, ast.Call) else term.items:
            _refs(a, out)
    elif isinstance(term, ast.Compare):
        _refs(term.left, out)
        _refs(term.right, out)
    elif isinstance(term, (ast.And, ast.Or)):
        _refs(term.left, out)
        _refs(term.right, out)
    elif isinstance(term, ast.Not):
        _refs(term.operand, out)


def names_in(node: ast.Term | ast.Cond) -> set[str]:
    out: set[str] = set()
    _refs(node, out)
    return out


def refs_e(node: ast.Term | ast.Cond) -> bool:
    return "e" in names_in(node)


def refs_random(node: ast.Term | ast.Cond) -> bool:
    stack: list = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ast.Call):
            if cur.name == "Random":
                return True
            stack.extend(cur.args)
        elif isinstance(cur, ast.FieldAccess):
            stack.append(cur.base)
        elif isinstance(cur, (ast.BinOp, ast.Compare, ast.And, ast.Or)):
            stack.extend((cur.left, cur.right))
        elif isinstance(cur, (ast.Neg, ast.Not)):
            stack.append(cur.operand)
        elif isinstance(cur, ast.VecLit):
            stack.extend(cur.items)
    return False


# ---------------------------------------------------------------------------
# Linear-form solving
# ---------------------------------------------------------------------------


def _linear_in_e(term: ast.Term) -> tuple[str, int, ast.Term | None] | None:
    """Express *term* as ``coeff * e.attr + offset`` with coeff ±1.

    Returns ``(attr, coeff, offset_term)`` (offset ``None`` meaning 0) or
    ``None`` when the term is not of that shape.  Covers the forms that
    occur in game scripts: ``e.x``, ``-e.x``, ``e.x ± t``, ``t ± e.x``.
    """
    if isinstance(term, ast.FieldAccess):
        if isinstance(term.base, ast.Name) and term.base.ident == "e":
            return term.attr, 1, None
        return None
    if isinstance(term, ast.Neg):
        inner = _linear_in_e(term.operand)
        if inner is None:
            return None
        attr, coeff, offset = inner
        new_offset = ast.Neg(offset) if offset is not None else None
        return attr, -coeff, new_offset
    if isinstance(term, ast.BinOp) and term.op in ("+", "-"):
        left_e, right_e = refs_e(term.left), refs_e(term.right)
        if left_e == right_e:
            return None  # both or neither reference e
        if left_e:
            inner = _linear_in_e(term.left)
            if inner is None:
                return None
            attr, coeff, offset = inner
            other = term.right if term.op == "+" else ast.Neg(term.right)
            combined = other if offset is None else ast.BinOp("+", offset, other)
            return attr, coeff, combined
        inner = _linear_in_e(term.right)
        if inner is None:
            return None
        attr, coeff, offset = inner
        if term.op == "-":
            coeff = -coeff
            offset = ast.Neg(offset) if offset is not None else None
        combined = term.left if offset is None else ast.BinOp("+", offset, term.left)
        return attr, coeff, combined
    return None


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _expand_abs(conjunct: ast.Cond) -> tuple[ast.Cond, ...]:
    """Rewrite ``abs(t) < r`` into ``t < r AND -t < r`` (likewise <=).

    The ``>`` direction is a disjunction and stays residual.  Figure 5's
    ``abs(u.posx - e.posx) < _HEALER_RANGE`` relies on this expansion.
    """
    if not isinstance(conjunct, ast.Compare):
        return (conjunct,)
    op, left, right = conjunct.op, conjunct.left, conjunct.right
    if (
        isinstance(left, ast.Call)
        and left.name == "abs"
        and len(left.args) == 1
        and op in ("<", "<=")
    ):
        t = left.args[0]
        return (
            ast.Compare(op, t, right),
            ast.Compare(op, ast.Neg(t), right),
        )
    if (
        isinstance(right, ast.Call)
        and right.name == "abs"
        and len(right.args) == 1
        and op in (">", ">=")
    ):
        t = right.args[0]
        flipped = _FLIP[op]
        return (
            ast.Compare(flipped, t, left),
            ast.Compare(flipped, ast.Neg(t), left),
        )
    return (conjunct,)


# ---------------------------------------------------------------------------
# Squared-distance pattern (nearest neighbour)
# ---------------------------------------------------------------------------


def _match_square(term: ast.Term) -> ast.Term | None:
    """Match ``t*t`` or ``pow(t, 2)``, returning ``t``."""
    if isinstance(term, ast.BinOp) and term.op == "*" and term.left == term.right:
        return term.left
    if (
        isinstance(term, ast.Call)
        and term.name == "pow"
        and len(term.args) == 2
        and term.args[1] == ast.Num(2)
    ):
        return term.args[0]
    return None


def match_squared_distance(
    term: ast.Term,
) -> tuple[tuple[str, str], tuple[ast.Term, ast.Term]] | None:
    """Match ``(e.X - cx)² + (e.Y - cy)²`` (any sign/order of differences).

    Returns ``((X, Y), (cx, cy))`` where the centers are e-free terms, or
    ``None``.  This is how ``GetNearestEnemy``-style aggregates stay in
    the declarative fragment yet compile to a kD-tree probe.
    """
    if not (isinstance(term, ast.BinOp) and term.op == "+"):
        return None
    squares = [_match_square(term.left), _match_square(term.right)]
    if any(s is None for s in squares):
        return None
    attrs: list[str] = []
    centers: list[ast.Term] = []
    for diff in squares:
        linear = _linear_in_e(diff)  # type: ignore[arg-type]
        if linear is None:
            return None
        attr, coeff, offset = linear
        # diff = ±(e.attr - center); squared, the sign is irrelevant.
        if offset is None:
            center: ast.Term = ast.Num(0)
        elif coeff == 1:
            center = ast.Neg(offset)
        else:
            center = offset
        if offset is not None and refs_e(offset):
            return None
        attrs.append(attr)
        centers.append(center)
    if len(set(attrs)) != 2:
        return None
    return (attrs[0], attrs[1]), (centers[0], centers[1])


# ---------------------------------------------------------------------------
# The classifier
# ---------------------------------------------------------------------------


def classify_aggregate(spec: SqlAggregateSpec) -> AggregateShape:
    """Derive the indexing shape of an Eq.-(5) aggregate spec."""
    eq_cats: list[EqConstraint] = []
    neq_cats: list[NeqConstraint] = []
    lowers: dict[str, list[Bound]] = {}
    uppers: dict[str, list[Bound]] = {}
    e_only: list[ast.Cond] = []
    u_only: list[ast.Cond] = []
    residual: list[ast.Cond] = []

    expanded: list[ast.Cond] = []
    for conjunct in spec.where:
        expanded.extend(_expand_abs(conjunct))

    for conjunct in expanded:
        names = names_in(conjunct)
        uses_e = "e" in names
        uses_u = bool(names - {"e"}) or refs_random(conjunct)
        if not uses_e:
            u_only.append(conjunct)
            continue
        if not uses_u:
            e_only.append(conjunct)
            continue
        if refs_random(conjunct):
            residual.append(conjunct)
            continue
        solved = _solve_join_conjunct(conjunct)
        if solved is None:
            residual.append(conjunct)
        elif isinstance(solved, EqConstraint):
            eq_cats.append(solved)
        elif isinstance(solved, NeqConstraint):
            neq_cats.append(solved)
        else:
            attr, bound, is_lower = solved
            (lowers if is_lower else uppers).setdefault(attr, []).append(bound)

    ranges = tuple(
        RangeConstraint(
            attr,
            tuple(lowers.get(attr, ())),
            tuple(uppers.get(attr, ())),
        )
        for attr in sorted(set(lowers) | set(uppers))
    )

    base = dict(
        eq_cats=tuple(eq_cats),
        neq_cats=tuple(neq_cats),
        ranges=ranges,
        e_only=tuple(e_only),
        u_only=tuple(u_only),
        residual=tuple(residual),
        outputs=spec.outputs,
        cat_attrs=tuple(c.attr for c in eq_cats)
        + tuple(c.attr for c in neq_cats),
    )

    return _pick_kind(spec.outputs, base)


def _solve_join_conjunct(
    conjunct: ast.Cond,
) -> EqConstraint | NeqConstraint | tuple[str, Bound, bool] | None:
    """Solve one e-and-u comparison into a constraint on an e attribute."""
    if not isinstance(conjunct, ast.Compare):
        return None
    op, left, right = conjunct.op, conjunct.left, conjunct.right
    left_e, right_e = refs_e(left), refs_e(right)
    if left_e and right_e:
        return None
    if right_e:  # normalise: e-side on the left
        left, right = right, left
        op = _FLIP.get(op, op)

    linear = _linear_in_e(left)
    if linear is None:
        return None
    attr, coeff, offset = linear

    if op == "<>":
        # anti-join is only indexable on a bare attribute
        if coeff == 1 and offset is None:
            return NeqConstraint(attr, right)
        return None

    bound_term: ast.Term = right
    if offset is not None:
        bound_term = ast.BinOp("-", bound_term, offset)
    if coeff == -1:
        bound_term = ast.Neg(bound_term)
        op = _FLIP.get(op, op)

    if op == "=":
        return EqConstraint(attr, bound_term)
    if op in (">", ">="):
        return attr, Bound(bound_term, strict=(op == ">")), True
    if op in ("<", "<="):
        return attr, Bound(bound_term, strict=(op == "<")), False
    return None


def _pick_kind(outputs: tuple[AggOutput, ...], base: dict) -> AggregateShape:
    residual = base["residual"]
    ranges: tuple[RangeConstraint, ...] = base["ranges"]

    # divisible: every output is a moment aggregate with an e-only measure
    if (
        not residual
        and len(ranges) <= 2
        and all(o.agg in MOMENT_AGGREGATES for o in outputs)
        and all(
            o.term is None
            or (names_in(o.term) <= {"e"} and not refs_random(o.term))
            for o in outputs
        )
    ):
        return AggregateShape(kind="divisible", **base)

    if len(outputs) == 1:
        out = outputs[0]
        if out.agg in ("argmin", "argmax", "min", "max") and out.term is not None:
            # nearest: argmin of a squared distance to a u-point
            if out.agg == "argmin":
                match = match_squared_distance(out.term)
                if match is not None:
                    attrs, centers = match
                    return AggregateShape(
                        kind="nearest",
                        nearest_attrs=attrs,
                        nearest_centers=centers,
                        returns_row=True,
                        **base,
                    )
            # extreme: min/max of an e-only value over a 2-d closed box
            value_is_e_only = names_in(out.term) <= {"e"} and not refs_random(
                out.term
            )
            box_ok = (
                len(ranges) == 2
                and all(r.lowers and r.uppers for r in ranges)
                and not residual
            )
            if value_is_e_only and box_ok and out.agg in (
                "min", "max", "argmin", "argmax"
            ):
                return AggregateShape(
                    kind="extreme",
                    extreme_kind="min" if out.agg in ("min", "argmin") else "max",
                    extreme_value=out.term,
                    returns_row=out.agg in ("argmin", "argmax"),
                    **base,
                )

    return AggregateShape(kind="fallback", **base)


# ---------------------------------------------------------------------------
# Action-spec classification (Sections 2.2 and 5.4)
# ---------------------------------------------------------------------------


ActionKind = Literal["key", "aoe", "scan"]


@dataclass(frozen=True)
class ActionShape:
    """How an Eq.-(4) action function's row selection executes.

    * ``key``  -- the WHERE clause pins ``e.key`` to a term: a single
      hash-lookup per ``perform`` (MoveInDirection, FireAt);
    * ``aoe``  -- an area-of-effect action over an orthogonal box with a
      single ``e``-independent effect value: eligible for the ⊕
      optimisation of Section 5.4 ("construct an index that contains
      their centers of effect");
    * ``scan`` -- anything else; executed by predicate scan.
    """

    kind: ActionKind
    # key actions
    key_term: ast.Term | None = None
    extra_where: tuple[ast.Cond, ...] = ()
    # aoe actions
    eq_cats: tuple[EqConstraint, ...] = ()
    neq_cats: tuple[NeqConstraint, ...] = ()
    ranges: tuple[RangeConstraint, ...] = ()
    e_only: tuple[ast.Cond, ...] = ()
    u_only: tuple[ast.Cond, ...] = ()
    effect_attr: str | None = None
    value_term: ast.Term | None = None  # e-free effect magnitude

    @property
    def cat_attrs(self) -> tuple[str, ...]:
        return tuple(c.attr for c in self.eq_cats) + tuple(
            c.attr for c in self.neq_cats
        )

    @property
    def range_attrs(self) -> tuple[str, ...]:
        return tuple(r.attr for r in self.ranges)


def _match_aoe_effect(attr: str, term: ast.Term) -> ast.Term | None:
    """Match effect terms whose contribution is independent of ``e``.

    Recognised patterns (V must be e-free):

    * ``nonsql_max(e.attr, V)`` / ``nonsql_max(V, e.attr)`` -- the
      nonstackable-aura idiom of Figure 5;
    * ``e.attr + V`` / ``V + e.attr`` -- stackable accumulation;
    * plain ``V`` -- absolute write (combines via the attribute's tag).

    Returns V, or ``None`` if the term does not match.
    """
    e_attr = ast.FieldAccess(ast.Name("e"), attr)
    if isinstance(term, ast.Call) and term.name in ("nonsql_max", "nonsql_min"):
        if len(term.args) == 2:
            for own, other in ((term.args[0], term.args[1]),
                               (term.args[1], term.args[0])):
                if own == e_attr and not refs_e(other):
                    return other
        return None
    if isinstance(term, ast.BinOp) and term.op == "+":
        for own, other in ((term.left, term.right), (term.right, term.left)):
            if own == e_attr and not refs_e(other):
                return other
        return None
    if not refs_e(term):
        return term
    return None


def classify_action(spec: SqlActionSpec) -> ActionShape:
    """Derive the execution shape of an Eq.-(4) action spec."""
    # key shape: some conjunct is ``e.key = term(u)``
    for i, conjunct in enumerate(spec.where):
        if isinstance(conjunct, ast.Compare) and conjunct.op == "=":
            left, right = conjunct.left, conjunct.right
            if refs_e(right) and not refs_e(left):
                left, right = right, left
            if (
                isinstance(left, ast.FieldAccess)
                and isinstance(left.base, ast.Name)
                and left.base.ident == "e"
                and left.attr == "key"
                and not refs_e(right)
            ):
                extra = spec.where[:i] + spec.where[i + 1 :]
                return ActionShape(kind="key", key_term=right, extra_where=extra)

    # aoe shape: orthogonal box + categorical constraints + one
    # e-independent effect value
    eq_cats: list[EqConstraint] = []
    neq_cats: list[NeqConstraint] = []
    lowers: dict[str, list[Bound]] = {}
    uppers: dict[str, list[Bound]] = {}
    e_only: list[ast.Cond] = []
    u_only: list[ast.Cond] = []

    expanded: list[ast.Cond] = []
    for conjunct in spec.where:
        expanded.extend(_expand_abs(conjunct))

    for conjunct in expanded:
        names = names_in(conjunct)
        uses_e = "e" in names
        uses_u = bool(names - {"e"}) or refs_random(conjunct)
        if not uses_e:
            u_only.append(conjunct)
            continue
        if not uses_u:
            e_only.append(conjunct)
            continue
        if refs_random(conjunct):
            return ActionShape(kind="scan")
        solved = _solve_join_conjunct(conjunct)
        if solved is None:
            return ActionShape(kind="scan")
        if isinstance(solved, EqConstraint):
            eq_cats.append(solved)
        elif isinstance(solved, NeqConstraint):
            neq_cats.append(solved)
        else:
            attr, bound, is_lower = solved
            (lowers if is_lower else uppers).setdefault(attr, []).append(bound)

    range_attr_names = sorted(set(lowers) | set(uppers))
    if len(range_attr_names) != 2 or not all(
        lowers.get(a) and uppers.get(a) for a in range_attr_names
    ):
        return ActionShape(kind="scan")

    if len(spec.effects) != 1:
        return ActionShape(kind="scan")
    (attr, term), = spec.effects.items()
    value = _match_aoe_effect(attr, term)
    if value is None:
        return ActionShape(kind="scan")

    ranges = tuple(
        RangeConstraint(a, tuple(lowers[a]), tuple(uppers[a]))
        for a in range_attr_names
    )
    return ActionShape(
        kind="aoe",
        eq_cats=tuple(eq_cats),
        neq_cats=tuple(neq_cats),
        ranges=ranges,
        e_only=tuple(e_only),
        u_only=tuple(u_only),
        effect_attr=attr,
        value_term=value,
    )
