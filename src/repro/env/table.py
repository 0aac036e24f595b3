"""The environment relation ``E`` as an in-memory multiset table.

The paper models all game state as a single relation that is read at the
start of each clock tick and replaced at the end (Section 4).  We keep the
representation deliberately simple -- a list of ``dict`` rows -- because:

* SGL semantics is defined tuple-at-a-time over rows;
* effect tables are small and short-lived (one tick);
* every performance-critical access path goes through the index structures
  in :mod:`repro.indexes`, never through raw row scans.

Tables are *multisets*: duplicate rows are meaningful (two identical
damage effects stack), so equality comparison is multiset equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .schema import Schema, SchemaError


class EnvironmentTable:
    """A multiset of rows over a :class:`~repro.env.schema.Schema`.

    Rows are plain dictionaries keyed by attribute name.  The table takes
    ownership of inserted dictionaries; callers that want to keep a row
    should pass a copy.
    """

    __slots__ = ("schema", "_rows")

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Mapping[str, object]] = (),
        *,
        validate: bool = True,
    ) -> None:
        self.schema = schema
        self._rows: list[dict[str, object]] = []
        for row in rows:
            self.insert(row, validate=validate)

    # -- mutation -----------------------------------------------------------------

    def insert(self, row: Mapping[str, object], *, validate: bool = True) -> None:
        if validate:
            self.schema.validate_row(row)
        self._rows.append(dict(row))

    def insert_unit(self, **state: object) -> dict[str, object]:
        """Insert a row built from schema defaults overridden by *state*.

        Returns the stored row so callers can capture generated values.
        """
        row = self.schema.default_row()
        unknown = [k for k in state if k not in self.schema]
        if unknown:
            raise SchemaError(f"unknown attributes {unknown}")
        row.update(state)
        missing = [k for k, v in row.items() if v is None]
        if missing:
            raise SchemaError(f"attributes without value or default: {missing}")
        self._rows.append(row)
        return row

    def extend(self, rows: Iterable[Mapping[str, object]]) -> None:
        for row in rows:
            self.insert(row)

    def clear(self) -> None:
        self._rows.clear()

    # -- access -------------------------------------------------------------------

    def __iter__(self) -> Iterator[dict[str, object]]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    @property
    def rows(self) -> list[dict[str, object]]:
        """The backing row list.  Treat as read-only."""
        return self._rows

    def column(self, name: str) -> list[object]:
        if name not in self.schema:
            raise SchemaError(f"unknown attribute {name!r}")
        return [row[name] for row in self._rows]

    def by_key(self) -> dict[object, dict[str, object]]:
        """Map ``K -> row``.  Only valid when ``K`` is a key of the table."""
        key = self.schema.key
        out: dict[object, dict[str, object]] = {}
        for row in self._rows:
            k = row[key]
            if k in out:
                raise ValueError(f"duplicate key {k!r}; table is not keyed")
            out[k] = row
        return out

    # -- multiset algebra primitives (Section 5.1) --------------------------------

    def select(self, predicate: Callable[[Mapping[str, object]], bool]) -> "EnvironmentTable":
        """``σ_pred`` -- rows satisfying *predicate* (rows are shared)."""
        out = EnvironmentTable(self.schema)
        out._rows = [row for row in self._rows if predicate(row)]
        return out

    def project(self, names: Sequence[str]) -> "EnvironmentTable":
        """``π_names`` -- restrict to the given columns (must keep the key)."""
        sub = self.schema.subschema(names)
        out = EnvironmentTable(sub)
        out._rows = [{n: row[n] for n in sub.names} for row in self._rows]
        return out

    def union(self, other: "EnvironmentTable") -> "EnvironmentTable":
        """Multiset union ``⊎`` (UNION ALL).

        Rows are copied: mutating a row of the result must never corrupt
        either input table (``select`` is the only combinator that shares
        rows, and says so).
        """
        if other.schema != self.schema:
            raise SchemaError("union requires identical schemas")
        out = EnvironmentTable(self.schema)
        out._rows = [dict(r) for r in self._rows]
        out._rows.extend(dict(r) for r in other._rows)
        return out

    def copy(self, *, deep: bool = True) -> "EnvironmentTable":
        out = EnvironmentTable(self.schema)
        out._rows = [dict(r) for r in self._rows] if deep else list(self._rows)
        return out

    # -- comparison ---------------------------------------------------------------

    def _multiset(self) -> dict[tuple[object, ...], int]:
        counts: dict[tuple[object, ...], int] = {}
        names = self.schema.names
        for row in self._rows:
            sig = tuple(row[n] for n in names)
            counts[sig] = counts.get(sig, 0) + 1
        return counts

    def multiset_equal(self, other: "EnvironmentTable") -> bool:
        """True when both tables hold the same rows with same multiplicity."""
        return self.schema == other.schema and self._multiset() == other._multiset()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EnvironmentTable):
            return NotImplemented
        return self.multiset_equal(other)

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("EnvironmentTable is mutable and unhashable")

    def __repr__(self) -> str:
        return f"EnvironmentTable({len(self._rows)} rows, {self.schema!r})"


# ---------------------------------------------------------------------------
# Change capture (the replica feeds)
# ---------------------------------------------------------------------------


@dataclass
class TableDelta:
    """Row-level difference between two keyed snapshots of ``E``.

    Produced once per clock tick by :func:`diff_by_key` when a replica
    feed is attached, and encoded for the wire by
    :func:`~repro.env.sharding.encode_replica_delta`.  ``deleted`` and
    the first element of each ``updated`` pair are rows of the *old*
    table.
    """

    inserted: list[dict[str, object]] = field(default_factory=list)
    deleted: list[dict[str, object]] = field(default_factory=list)
    #: ``(old_row, new_row)`` pairs sharing a key but differing in value.
    updated: list[tuple[dict[str, object], dict[str, object]]] = field(
        default_factory=list
    )
    #: Row count of the new table.
    base_size: int = 0

    @property
    def changed(self) -> int:
        return len(self.inserted) + len(self.deleted) + len(self.updated)


def diff_by_key(old: EnvironmentTable, new: EnvironmentTable) -> TableDelta | None:
    """Diff two environment snapshots into inserted/deleted/updated rows.

    Both tables must be keyed on ``schema.key`` with identical schemas;
    returns ``None`` (every feed falls back to a snapshot) when either
    holds duplicate keys, since a keyless multiset has no row identity
    to ship a change against.
    """
    if old.schema != new.schema:
        return None
    key = old.schema.key

    old_by_key: dict[object, dict[str, object]] = {}
    for row in old.rows:
        old_by_key.setdefault(row[key], row)
    if len(old_by_key) != len(old.rows):  # catches same-object duplicates too
        return None
    delta = TableDelta(base_size=len(new))

    seen: set[object] = set()
    for row in new.rows:
        k = row[key]
        if k in seen:
            return None
        seen.add(k)
        old_row = old_by_key.get(k)
        if old_row is None:
            delta.inserted.append(row)
        elif old_row != row:
            delta.updated.append((old_row, row))
    for k, old_row in old_by_key.items():
        if k not in seen:
            delta.deleted.append(old_row)
    return delta
