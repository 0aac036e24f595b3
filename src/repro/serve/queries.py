"""Read-only queries over a (replicated) environment state.

The spectator protocol's correctness bar is *bit-exactness*: a replica
at epoch ``e`` must answer every query with exactly the value the
authoritative engine would produce for the same query at the same
epoch.  The way this module guarantees that is brutally simple -- there
is **one** evaluation code path, :class:`QueryEngine`, and both sides
run it:

* the :class:`~repro.serve.spectator.SpectatorReplica` keeps one
  long-lived instance whose :class:`~repro.engine.evaluator
  .IndexedEvaluator` and retained kD-tree are *incrementally
  maintained* from the subscription feed's
  :class:`~repro.env.sharding.ReplicaDelta` stream;
* :class:`AuthoritativeQueryService` wraps a live
  :class:`~repro.engine.clock.SimulationEngine` with a rebuild-mode
  instance over the engine's own environment.

Incrementally-maintained and freshly-built index structures answer
identically (the equivalence property the repo's maintenance tests
assert, exact whenever measure sums are exact in floating point), so
the two sides agree bit for bit.

Query kinds (the wire vocabulary of :class:`QueryRequest`):

``aggregate``
    A registered SGL aggregate function by name (e.g. the battle's
    ``CountFriendlyKnights``), evaluated through the index-backed
    evaluator.  Arguments may reference replica rows via
    :func:`unit_ref`.
``sgl``
    An aggregate *compiled from source* -- the client ships a
    ``function F(...) returns SELECT ...`` definition in the paper's
    restricted SQL fragment; the engine compiles it once (cached by
    source text), classifies its shape, and probes/retains exactly the
    index the shape calls for.
``team_counts`` / ``hp_histogram``
    Canned aggregates over a categorical attribute / bucketed numeric
    attribute.
``knn``
    The *k* nearest units to a point, served from a retained kD-tree
    by repeated ``(distance², key)``-ordered extraction -- the spatial
    query family of Section 5.3.2 generalised from the scripts'
    nearest-1 probes.

Answers are converted to plain Python data (:func:`plain_value`) so
they pickle safely across the wire and compare with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..engine.evaluator import IndexedEvaluator
from ..env.table import EnvironmentTable, TableDelta
from ..indexes.kdtree import KDTree
from ..obs import StatCounters
from ..sgl.builtins import AggregateFunction, FunctionRegistry
from ..sgl.errors import SglError
from ..sgl.evalterm import EvalContext
from ..sgl.sqlspec import SqlAggregateSpec, parse_sql_function
from ..sgl.values import Record, Vec

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.clock import SimulationEngine
    from ..env.schema import Schema


class QueryError(ValueError):
    """A malformed or unanswerable read-only query."""


#: Names the short-form client API treats as canned query kinds.
CANNED_KINDS = frozenset({"team_counts", "hp_histogram", "knn"})

#: Marker tuple tag for arguments that reference a replica row by key.
_UNIT_REF = "$unit"


def unit_ref(key: object) -> tuple[str, object]:
    """An argument placeholder resolved to the replica's row for *key*.

    Lets a client call unit-parameterised aggregates (``NearestEnemy(u)``)
    without holding the row: the replica substitutes its own current row
    at the pinned epoch, so the probe sees exactly the state the epoch
    describes.
    """
    return (_UNIT_REF, key)


@dataclass(frozen=True)
class QueryRequest:
    """Wire form of one read-only query.

    *epoch* pins the answer: ``"latest"`` answers at whatever epoch the
    replica holds, an integer waits for (exactly) that epoch and fails
    if the replica has already moved past it.
    """

    kind: str  # "aggregate" | "sgl" | a canned kind
    name: str | None = None  # registered aggregate name (kind="aggregate")
    source: str | None = None  # SQL function text (kind="sgl")
    args: tuple = ()
    params: tuple = ()  # canned-kind options, as sorted (key, value) pairs
    epoch: object = "latest"

    def param(self, key: str, default: object = None) -> object:
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class QueryAnswer:
    """A query result pinned to the epoch it was answered at."""

    epoch: int
    value: object


def build_request(
    source_or_name: str,
    args: tuple = (),
    *,
    epoch: object = "latest",
    **params: object,
) -> QueryRequest:
    """The client-side sugar: classify *source_or_name* into a kind.

    A string starting with ``function`` is compiled SGL source; a canned
    kind's name selects it; anything else names a registered aggregate.
    """
    packed = tuple(sorted(params.items()))
    if source_or_name.lstrip().startswith("function"):
        return QueryRequest(
            kind="sgl",
            source=source_or_name,
            args=tuple(args),
            params=packed,
            epoch=epoch,
        )
    if source_or_name in CANNED_KINDS:
        return QueryRequest(
            kind=source_or_name, args=tuple(args), params=packed, epoch=epoch
        )
    return QueryRequest(
        kind="aggregate",
        name=source_or_name,
        args=tuple(args),
        params=packed,
        epoch=epoch,
    )


def plain_value(value: object) -> object:
    """Strip SGL runtime types down to picklable, ``==``-comparable data."""
    if isinstance(value, Record):
        return {k: plain_value(v) for k, v in value.as_dict().items()}
    if isinstance(value, Vec):
        return list(value.items)
    if isinstance(value, Mapping):
        return {k: plain_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain_value(v) for v in value]
    return value


def _no_query_random(row, i):  # pragma: no cover - guarded by analysis
    raise QueryError(
        "Random is not available in read-only spectator queries; "
        "query results must be pure functions of the pinned epoch"
    )


#: Retained-kD-tree rebuild policy: mirror the evaluator's overlay
#: budget (mutations beyond half the tree, floor 32, force a rebuild).
_TREE_MUTATION_FLOOR = 32
_TREE_MUTATION_BUDGET = 0.5


@dataclass
class _RetainedTree:
    tree: KDTree
    mutations: int = 0


class QueryEngine:
    """Evaluates :class:`QueryRequest`\\ s against one environment state.

    ``maintenance="incremental"`` (the replica side) retains the
    evaluator's index structures and the k-NN tree across
    :meth:`begin` calls and patches them with each delta;
    ``maintenance="rebuild"`` (the authoritative side) discards and
    lazily rebuilds per state -- both answer identically.
    """

    def __init__(
        self,
        schema: "Schema",
        registry: FunctionRegistry,
        *,
        maintenance: str = "incremental",
    ):
        self.schema = schema
        self.registry = registry
        self.evaluator = IndexedEvaluator(
            registry, key_attr=schema.key, maintenance=maintenance
        )
        self._env: EnvironmentTable | None = None
        self._by_key: dict[object, dict[str, object]] | None = None
        self._sgl: dict[str, AggregateFunction] = {}
        self._knn: _RetainedTree | None = None
        # a plain dict to callers; bindable to a metrics registry (the
        # spectator's REQ_METRICS pull populates one on demand)
        self.stats = StatCounters(prefix="queries")

    # -- state lifecycle ----------------------------------------------------------

    def begin(
        self, env: EnvironmentTable, delta: TableDelta | None = None
    ) -> None:
        """Adopt a new environment state.

        *delta* is the change set from the previously-begun state (the
        replica's :meth:`~repro.env.sharding.ReplicaTable.apply_delta`
        result); ``None`` means a discontinuity (snapshot), which drops
        every retained structure for lazy rebuild.
        """
        self.evaluator.begin_tick(env, delta=delta)
        self._env = env
        self._by_key = None  # rebuilt lazily; rows may be brand new dicts
        self._maintain_knn(delta)

    def _maintain_knn(self, delta: TableDelta | None) -> None:
        retained = self._knn
        if retained is None:
            return
        if delta is None:
            self._knn = None
            return
        tree = retained.tree
        key_attr = self.schema.key
        ok = True
        for row in delta.inserted:
            tree.insert((row["posx"], row["posy"]), row)
        for row in delta.deleted:
            row_key = row[key_attr]
            ok &= tree.delete(
                (row["posx"], row["posy"]),
                lambda item: item[key_attr] == row_key,
            )
        for old, new in delta.updated:
            row_key = old[key_attr]
            if old["posx"] == new["posx"] and old["posy"] == new["posy"]:
                ok &= tree.replace_item(
                    (old["posx"], old["posy"]),
                    lambda item: item[key_attr] == row_key,
                    new,
                )
            else:
                ok &= tree.delete(
                    (old["posx"], old["posy"]),
                    lambda item: item[key_attr] == row_key,
                )
                tree.insert((new["posx"], new["posy"]), new)
        retained.mutations += delta.changed
        budget = max(
            _TREE_MUTATION_FLOOR, int(_TREE_MUTATION_BUDGET * len(tree))
        )
        if not ok or retained.mutations > budget:
            # a row the tree does not hold means drift; over-budget means
            # tombstone weight -- either way rebuild lazily on next probe
            self._knn = None
            self._bump("knn_rebuilds")

    # -- answering ----------------------------------------------------------------

    def answer(self, request: QueryRequest) -> object:
        """Evaluate one request; returns a plain-data value.

        Raises :class:`QueryError` (or an SGL compile error wrapped in
        one) for malformed queries; never mutates the environment.
        """
        if self._env is None:
            raise QueryError("no environment state adopted yet")
        kind = request.kind
        self._bump("queries")
        if kind == "aggregate":
            fn = self.registry.aggregates.get(request.name or "")
            if fn is None:
                raise QueryError(
                    f"unknown aggregate function {request.name!r}"
                )
            return self._eval_aggregate(fn, request.args)
        if kind == "sgl":
            return self._eval_aggregate(
                self._compile_sgl(request.source or ""), request.args
            )
        if kind == "team_counts":
            return self._eval_group_counts(
                str(request.param("attr", "player"))
            )
        if kind == "hp_histogram":
            return self._eval_histogram(
                str(request.param("attr", "health")),
                request.param("bucket", 10),
            )
        if kind == "knn":
            return self._eval_knn(request)
        raise QueryError(f"unknown query kind {kind!r}")

    # -- SGL aggregates (registered and compiled-from-source) ---------------------

    def _compile_sgl(self, source: str) -> AggregateFunction:
        fn = self._sgl.get(source)
        if fn is None:
            try:
                parsed = parse_sql_function(source)
            except SglError as exc:
                raise QueryError(f"cannot compile query source: {exc}") from exc
            if not isinstance(parsed.spec, SqlAggregateSpec):
                raise QueryError(
                    f"{parsed.name!r} is an action function; spectator "
                    "queries are read-only aggregates"
                )
            # mangled name: compiled queries must never collide with each
            # other (or a registered function) in the evaluator's
            # per-name compile, kD, sweep and scan caches; divisible
            # indexes are per selection, which the query joins (a new
            # measure widens it and drops the retained index once)
            fn = AggregateFunction(
                name=f"{parsed.name}@sgl{len(self._sgl)}",
                params=parsed.params,
                spec=parsed.spec,
            )
            self._sgl[source] = fn
            self._bump("sgl_compiled")
        return fn

    def _resolve_args(self, args: tuple) -> list[object]:
        out = []
        for arg in args:
            if (
                isinstance(arg, tuple)
                and len(arg) == 2
                and arg[0] == _UNIT_REF
            ):
                if self._by_key is None:
                    try:
                        self._by_key = self._env.by_key()
                    except ValueError as exc:
                        raise QueryError(str(exc)) from exc
                row = self._by_key.get(arg[1])
                if row is None:
                    raise QueryError(
                        f"no unit with key {arg[1]!r} at this epoch"
                    )
                out.append(row)
            else:
                out.append(arg)
        return out

    def _eval_aggregate(self, fn: AggregateFunction, args: tuple) -> object:
        resolved = self._resolve_args(args)
        if len(resolved) != len(fn.params):
            raise QueryError(
                f"{fn.name} expects {len(fn.params)} args, "
                f"got {len(resolved)}"
            )
        ctx = EvalContext(
            env=self._env,
            registry=self.registry,
            agg_eval=self.evaluator,
            rng=_no_query_random,
            bindings={},
            unit=None,
        )
        try:
            value = self.evaluator.evaluate(fn, resolved, ctx)
        except SglError as exc:
            raise QueryError(f"query evaluation failed: {exc}") from exc
        return plain_value(value)

    # -- canned aggregates --------------------------------------------------------

    def _eval_group_counts(self, attr: str) -> list:
        if attr not in self.schema:
            raise QueryError(f"unknown attribute {attr!r}")
        counts: dict[object, int] = {}
        for row in self._env.rows:
            value = row[attr]
            counts[value] = counts.get(value, 0) + 1
        return [[value, counts[value]] for value in sorted(counts)]

    def _eval_histogram(self, attr: str, bucket: object) -> list:
        if attr not in self.schema:
            raise QueryError(f"unknown attribute {attr!r}")
        if not isinstance(bucket, (int, float)) or bucket <= 0:
            raise QueryError(f"bucket must be a positive number, got {bucket!r}")
        counts: dict[int, int] = {}
        for row in self._env.rows:
            index = int(row[attr] // bucket)
            counts[index] = counts.get(index, 0) + 1
        return [
            [index * bucket, counts[index]] for index in sorted(counts)
        ]

    # -- spatial k-NN -------------------------------------------------------------

    def _eval_knn(self, request: QueryRequest) -> list:
        args = request.args
        if len(args) != 3:
            raise QueryError("knn expects args (k, x, y)")
        k, x, y = args
        if not isinstance(k, int) or k < 1:
            raise QueryError(f"k must be a positive int, got {k!r}")
        retained = self._knn
        if retained is None:
            rows = self._env.rows
            retained = _RetainedTree(
                KDTree([(r["posx"], r["posy"]) for r in rows], rows)
            )
            self._knn = retained
            self._bump("knn_builds")
        key_attr = self.schema.key
        tree = retained.tree
        chosen: list[list] = []
        chosen_keys: set = set()

        def exclude(row) -> bool:
            return row[key_attr] in chosen_keys

        tie_key = lambda row: row[key_attr]  # noqa: E731
        # repeated (dist², key)-minimal extraction == the k smallest
        # (dist², key) pairs, the same order a full scan would sort by
        for _ in range(k):
            found = tree.nearest((x, y), exclude=exclude, tie_key=tie_key)
            if found is None:
                break
            row, dist_sq = found
            chosen_keys.add(row[key_attr])
            chosen.append([row[key_attr], dist_sq])
        self._bump("knn_probes")
        return chosen

    def _bump(self, counter: str) -> None:
        self.stats.bump(counter)


class AuthoritativeQueryService:
    """The authoritative twin: answers wire queries from a live engine.

    Used by benchmarks and tests to produce the ground truth a replica's
    answer must match bit for bit, and by applications that want the
    same query API without a replica.  The engine's current state is
    epoch ``tick_count + 1`` (the state the *next* tick's decisions
    would read -- exactly what the publisher streams after each tick).
    """

    def __init__(self, engine: "SimulationEngine"):
        self.engine = engine
        self._qe = QueryEngine(
            engine.env.schema, engine.registry, maintenance="rebuild"
        )
        self._epoch: int | None = None

    def answer(
        self,
        source_or_name: str,
        *args: object,
        **params: object,
    ) -> QueryAnswer:
        request = build_request(source_or_name, tuple(args), **params)
        epoch = self.engine.tick_count + 1
        if epoch != self._epoch:
            self._qe.begin(self.engine.env)
            self._epoch = epoch
        return QueryAnswer(epoch=epoch, value=self._qe.answer(request))
