"""The restricted SQL fragment of Eqs. (4) and (5).

The paper assumes every built-in function is expressible in a restricted
SQL shape:

* **aggregate functions** (Eq. 5, Figure 4)::

      SELECT a1(h1(u,e,r)), ..., ak(hk(u,e,r))
      FROM E e WHERE phi(u, e, r);

* **action functions** (Eq. 4, Figure 5)::

      SELECT e.K, h1(u,e,r) AS A1, ..., hk(u,e,r) AS Ak
      FROM E e WHERE phi(u, e, r);

This module defines the spec dataclasses for both shapes, a parser for
the SQL text (so Figure 4/5 can be transcribed verbatim), and the *naive*
evaluation of specs by scanning the environment -- the O(n)-per-call
baseline of Section 6.  Index-accelerated evaluation lives in
:mod:`repro.engine.evaluator`, over the shapes :mod:`repro.algebra.shapes`
classifies.

Name-resolution conventions (documented for script authors):

* the table alias (``e`` by default) refers to the scanned row; ``E.x``
  in a WHERE clause is normalised to ``e.x`` as in Figure 4;
* bare names that are not function parameters are treated as attributes
  of ``e`` (Figure 4 writes ``Avg(x)`` for ``Avg(e.x)``);
* names starting with ``_`` (``_ARROW_HIT_DAMAGE``, ``_HEALER_RANGE``,
  ...) are game constants looked up in the function registry.

Beyond the paper's SQL aggregates (count/sum/avg/min/max) we support
``stddev``/``var`` (the knights' close-ranks script of Section 3.2 needs
the standard deviation of troop positions) and ``argmin``/``argmax``,
which return the whole minimising/maximising row as a record.  Argmin
over a squared-distance term is exactly the nearest-neighbour aggregate
(``GetNearestEnemy``), which keeps even the spatial aggregates of
Section 5.3.2 inside the declarative fragment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from . import ast
from .errors import SglSyntaxError, SglTypeError
from .evalterm import EvalContext, eval_cond, eval_term
from .parser import _Parser
from .tokens import TokenKind, tokenize
from .values import Record

#: SQL aggregate names of the fragment (lowercase canonical form).
SQL_AGGREGATES = frozenset(
    {"count", "sum", "avg", "min", "max", "stddev", "var", "argmin", "argmax"}
)

#: Aggregates computable from (count, sum, sum-of-squares) prefix data --
#: exactly the divisible aggregates of Definition 5.1 plus their ratios.
DIVISIBLE_AGGREGATES = frozenset({"count", "sum", "avg", "stddev", "var"})


@dataclass(frozen=True)
class AggOutput:
    """One output column ``agg(term) AS alias`` of an aggregate spec."""

    agg: str
    term: ast.Term | None  # None only for count(*)
    alias: str

    def __post_init__(self) -> None:
        if self.agg not in SQL_AGGREGATES:
            raise SglTypeError(f"unknown SQL aggregate {self.agg!r}")
        if self.term is None and self.agg != "count":
            raise SglTypeError(f"{self.agg}(*) is not defined")


@dataclass(frozen=True)
class SqlAggregateSpec:
    """Eq. (5): aggregate outputs over the rows satisfying ``where``."""

    where: tuple[ast.Cond, ...]
    outputs: tuple[AggOutput, ...]

    def __post_init__(self) -> None:
        if not self.outputs:
            raise SglTypeError("aggregate spec needs at least one output")
        aliases = [o.alias for o in self.outputs]
        if len(set(aliases)) != len(aliases):
            raise SglTypeError(f"duplicate output aliases in {aliases}")


@dataclass(frozen=True)
class SqlActionSpec:
    """Eq. (4): effect terms applied to the rows satisfying ``where``.

    ``effects`` maps effect-attribute names to the term producing the new
    value; attributes not listed pass through from ``e`` unchanged, which
    matches the explicit column lists of Figure 5.
    """

    where: tuple[ast.Cond, ...]
    effects: Mapping[str, ast.Term]


# ---------------------------------------------------------------------------
# Naive (scan-based) evaluation -- the reference and baseline semantics
# ---------------------------------------------------------------------------


def matching_rows(
    where: Sequence[ast.Cond],
    bindings: Mapping[str, object],
    rows: Iterable[Mapping[str, object]],
    ctx: EvalContext,
) -> Iterator[Mapping[str, object]]:
    """Rows of *rows* satisfying every conjunct of *where*.

    *bindings* holds the spec's parameter values (including ``u``).
    """
    scope = dict(ctx.bindings)
    scope.update(bindings)
    row_ctx = ctx.bind(scope)
    for row in rows:
        row_ctx.bindings["e"] = row
        if all(eval_cond(conjunct, row_ctx) for conjunct in where):
            yield row


def _tie_break(row: Mapping[str, object], best: Mapping[str, object] | None) -> bool:
    """Deterministic argmin/argmax tie-break: prefer the smaller ``key``.

    Every evaluator in the system (naive scan, kD-tree, sweep-line) uses
    this rule so that the naive and indexed engines take bit-identical
    decisions -- a property the equivalence test suite relies on.  Rows
    without a ``key`` attribute keep first-encountered-wins order.
    """
    if best is None:
        return True
    try:
        return row["key"] < best["key"]  # type: ignore[operator]
    except (KeyError, TypeError):
        return False


class _AggAccumulator:
    """Streaming accumulator for one :class:`AggOutput`."""

    __slots__ = ("output", "count", "total", "total_sq", "best", "best_row")

    def __init__(self, output: AggOutput):
        self.output = output
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.best: object = None
        self.best_row: Mapping[str, object] | None = None

    def add(self, row: Mapping[str, object], row_ctx: EvalContext) -> None:
        agg = self.output.agg
        self.count += 1
        if agg == "count":
            return
        value = eval_term(self.output.term, row_ctx)  # type: ignore[arg-type]
        if agg in ("sum", "avg"):
            self.total += value  # type: ignore[operator]
        elif agg in ("stddev", "var"):
            self.total += value  # type: ignore[operator]
            self.total_sq += value * value  # type: ignore[operator]
        elif agg == "min" or agg == "argmin":
            if (
                self.best is None
                or value < self.best  # type: ignore[operator]
                or (value == self.best and _tie_break(row, self.best_row))
            ):
                self.best, self.best_row = value, row
        elif agg == "max" or agg == "argmax":
            if (
                self.best is None
                or value > self.best  # type: ignore[operator]
                or (value == self.best and _tie_break(row, self.best_row))
            ):
                self.best, self.best_row = value, row

    def result(self) -> object:
        agg = self.output.agg
        if agg == "count":
            return self.count
        if self.count == 0:
            return 0 if agg == "sum" else None
        if agg == "sum":
            return self.total
        if agg == "avg":
            return self.total / self.count
        if agg in ("var", "stddev"):
            mean = self.total / self.count
            variance = max(self.total_sq / self.count - mean * mean, 0.0)
            return variance if agg == "var" else math.sqrt(variance)
        if agg in ("min", "max"):
            return self.best
        # argmin / argmax return the whole chosen row as a record
        return Record(self.best_row) if self.best_row is not None else None


def finalize_outputs(
    outputs: Sequence[AggOutput], results: Sequence[object]
) -> object:
    """Package aggregate results: a scalar for one output, else a record."""
    if len(outputs) == 1:
        return results[0]
    return Record({o.alias: r for o, r in zip(outputs, results)})


def evaluate_aggregate_scan(
    spec: SqlAggregateSpec,
    bindings: Mapping[str, object],
    rows: Iterable[Mapping[str, object]],
    ctx: EvalContext,
) -> object:
    """Naive O(n) evaluation of an aggregate spec over *rows*."""
    accumulators = [_AggAccumulator(o) for o in spec.outputs]
    scope = dict(ctx.bindings)
    scope.update(bindings)
    row_ctx = ctx.bind(scope)
    for row in matching_rows(spec.where, bindings, rows, ctx):
        row_ctx.bindings["e"] = row
        for acc in accumulators:
            acc.add(row, row_ctx)
    return finalize_outputs(spec.outputs, [a.result() for a in accumulators])


def apply_action_scan(
    spec: SqlActionSpec,
    bindings: Mapping[str, object],
    ctx: EvalContext,
) -> list[dict[str, object]]:
    """Naive evaluation of an action spec: effect rows for matching units."""
    out: list[dict[str, object]] = []
    scope = dict(ctx.bindings)
    scope.update(bindings)
    row_ctx = ctx.bind(scope)
    for row in matching_rows(spec.where, bindings, ctx.env.rows, ctx):
        new_row = dict(row)
        row_ctx.bindings["e"] = row
        for attr, term in spec.effects.items():
            new_row[attr] = eval_term(term, row_ctx)
        out.append(new_row)
    return out


# ---------------------------------------------------------------------------
# Conjunct utilities
# ---------------------------------------------------------------------------


def split_conjuncts(cond: ast.Cond) -> tuple[ast.Cond, ...]:
    """Flatten a WHERE clause into its top-level AND-conjuncts."""
    if isinstance(cond, ast.And):
        return split_conjuncts(cond.left) + split_conjuncts(cond.right)
    return (cond,)


# ---------------------------------------------------------------------------
# SQL text parser (Figures 4 and 5 verbatim)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedSqlFunction:
    """Result of parsing one ``function Name(params) returns SELECT ...``."""

    name: str
    params: tuple[str, ...]
    spec: SqlAggregateSpec | SqlActionSpec


def parse_sql_functions(source: str) -> list[ParsedSqlFunction]:
    """Parse one or more SQL-defined functions from *source*."""
    parser = _SqlParser(tokenize(source))
    out = []
    while not parser.at(TokenKind.EOF):
        out.append(parser.sql_function())
        while parser.at(TokenKind.SEMI):
            parser.advance()
    if not out:
        raise SglSyntaxError("no SQL function definitions found")
    return out


def parse_sql_function(source: str) -> ParsedSqlFunction:
    """Parse exactly one SQL-defined function."""
    functions = parse_sql_functions(source)
    if len(functions) != 1:
        raise SglSyntaxError(f"expected one function, found {len(functions)}")
    return functions[0]


class _SqlParser(_Parser):
    """Parses the restricted SQL fragment, reusing the SGL term grammar."""

    def sql_function(self) -> ParsedSqlFunction:
        if self.at_keyword("function"):
            self.advance()
        name = self.expect(TokenKind.NAME).text
        self.expect(TokenKind.LPAREN)
        params: list[str] = []
        if not self.at(TokenKind.RPAREN):
            params.append(self.expect(TokenKind.NAME).text)
            while self.at(TokenKind.COMMA):
                self.advance()
                params.append(self.expect(TokenKind.NAME).text)
        self.expect(TokenKind.RPAREN)
        self.expect_keyword("returns")
        spec = self.select_statement(tuple(params))
        return ParsedSqlFunction(name=name, params=tuple(params), spec=spec)

    def select_statement(
        self, params: tuple[str, ...]
    ) -> SqlAggregateSpec | SqlActionSpec:
        self.expect_keyword("select")
        items = [self.select_item()]
        while self.at(TokenKind.COMMA):
            self.advance()
            items.append(self.select_item())

        self.expect_keyword("from")
        table = self.expect(TokenKind.NAME).text
        alias = table
        if self.at(TokenKind.NAME):
            alias = self.advance().text

        conjuncts: tuple[ast.Cond, ...] = ()
        if self.at_keyword("where"):
            self.advance()
            conjuncts = split_conjuncts(self.condition())
        while self.at(TokenKind.SEMI):
            self.advance()

        normalizer = _Normalizer(params=frozenset(params), aliases={table, alias})
        return _build_spec(items, conjuncts, normalizer)

    def select_item(self) -> tuple[ast.Term | str, str | None]:
        """One select-list item: ``(term_or_star, alias_or_None)``.

        ``Count(*)`` is the only place ``*`` may appear; it is returned as
        the literal string ``"*"`` wrapped in a Call with no args.
        """
        # Count(*) -- peek for NAME '(' '*' ')'
        if (
            self.at(TokenKind.NAME)
            and self._peek(1).kind is TokenKind.LPAREN
            and self._peek(2).kind is TokenKind.STAR
            and self._peek(3).kind is TokenKind.RPAREN
        ):
            fn = self.advance().text
            self.advance()  # (
            self.advance()  # *
            self.advance()  # )
            term: ast.Term = ast.Call(fn, ())
        else:
            term = self.term()
        alias: str | None = None
        if self.at_keyword("as"):
            self.advance()
            alias = self.expect(TokenKind.NAME).text
        return term, alias


@dataclass(frozen=True)
class _Normalizer:
    """Rewrites parsed SQL terms into canonical spec form.

    * table aliases become the canonical row variable ``e``;
    * bare non-parameter names become ``e.<name>`` attribute references;
    * names starting with ``_`` stay as registry-constant references.
    """

    params: frozenset[str]
    aliases: frozenset[str] | set[str]

    def term(self, node: ast.Term) -> ast.Term:
        if isinstance(node, ast.Name):
            if node.ident in self.params or node.ident.startswith("_"):
                return node
            if node.ident in self.aliases or node.ident == "e":
                return ast.Name("e")
            return ast.FieldAccess(ast.Name("e"), node.ident)
        if isinstance(node, ast.FieldAccess):
            base = node.base
            if isinstance(base, ast.Name) and base.ident in self.aliases:
                base = ast.Name("e")
            elif isinstance(base, ast.Name):
                # parameter records like u.posx pass through
                base = base
            else:
                base = self.term(base)
            return ast.FieldAccess(base, node.attr)
        if isinstance(node, ast.BinOp):
            return ast.BinOp(node.op, self.term(node.left), self.term(node.right))
        if isinstance(node, ast.Neg):
            return ast.Neg(self.term(node.operand))
        if isinstance(node, ast.Call):
            return ast.Call(node.name, tuple(self.term(a) for a in node.args))
        if isinstance(node, ast.VecLit):
            return ast.VecLit(tuple(self.term(i) for i in node.items))
        return node

    def cond(self, node: ast.Cond) -> ast.Cond:
        if isinstance(node, ast.Compare):
            return ast.Compare(node.op, self.term(node.left), self.term(node.right))
        if isinstance(node, ast.And):
            return ast.And(self.cond(node.left), self.cond(node.right))
        if isinstance(node, ast.Or):
            return ast.Or(self.cond(node.left), self.cond(node.right))
        if isinstance(node, ast.Not):
            return ast.Not(self.cond(node.operand))
        return node


def _build_spec(
    items: list[tuple[ast.Term, str | None]],
    conjuncts: tuple[ast.Cond, ...],
    normalizer: _Normalizer,
) -> SqlAggregateSpec | SqlActionSpec:
    where = tuple(normalizer.cond(c) for c in conjuncts)

    agg_items = [
        (term, alias)
        for term, alias in items
        if isinstance(term, ast.Call) and term.name.lower() in SQL_AGGREGATES
    ]

    if agg_items:
        if len(agg_items) != len(items):
            raise SglSyntaxError(
                "select list mixes aggregate and non-aggregate items"
            )
        outputs = []
        for call, alias in agg_items:
            assert isinstance(call, ast.Call)
            agg = call.name.lower()
            if not call.args:
                arg_term: ast.Term | None = None
                if agg != "count":
                    raise SglSyntaxError(f"{call.name} requires an argument")
            elif len(call.args) == 1:
                arg_term = normalizer.term(call.args[0])
            else:
                raise SglSyntaxError(f"{call.name} takes one argument")
            outputs.append(
                AggOutput(agg=agg, term=arg_term, alias=alias or agg)
            )
        aliases = [o.alias for o in outputs]
        if len(set(aliases)) != len(aliases):
            raise SglSyntaxError(
                f"duplicate output aliases {aliases}; add AS clauses"
            )
        return SqlAggregateSpec(where=where, outputs=tuple(outputs))

    # Action spec: aliased expressions are effects; bare column references
    # are pass-throughs and dropped (the evaluator copies the row anyway).
    effects: dict[str, ast.Term] = {}
    for term, alias in items:
        normalized = normalizer.term(term)
        if alias is None:
            if isinstance(normalized, ast.FieldAccess) and isinstance(
                normalized.base, ast.Name
            ):
                continue  # pass-through column like ``e.posx``
            raise SglSyntaxError(
                f"non-column select item {term} needs an AS alias"
            )
        if (
            isinstance(normalized, ast.FieldAccess)
            and isinstance(normalized.base, ast.Name)
            and normalized.base.ident == "e"
            and normalized.attr == alias
        ):
            continue  # explicit pass-through like ``e.damage AS damage``
        effects[alias] = normalized
    return SqlActionSpec(where=where, effects=effects)
