"""The combination operator ``⊕`` (Section 4.2).

``⊕R`` groups a table on its ``const``-tagged attributes and merges each
effect attribute with the aggregate named by its tag::

    select K, f1(A1) as A1, ..., fm(Am) as Am
    from R group by K, <const attributes>;

where ``f`` is identity for const attributes and ``sum``/``min``/``max``
otherwise (Eq. 2).  Because those aggregates are associative and
commutative, ``⊕`` is too, and Eq. (3) gives::

    ⊕(E1 ⊎ E2) = ⊕(⊕(E1) ⊎ E2)          (incremental combining)
    ⊕(⊕(E))     = ⊕(E)                    (idempotence)

These identities are what license the query-plan rewrites of Section 5.2;
they are verified by property tests in ``tests/env/test_combine.py``.

**Two groupings, one fold.**  The reference grouping is Eq. 2's: the
tuple of every const attribute.  When ``K`` determines the const
attributes -- every row of the tick's tables is ``E``'s row for its key
with only effect attributes changed -- grouping on ``K`` alone gives the
same groups, so :func:`combine_all` takes ``by_key=True`` to group on
the key.  Only the caller can vouch for that: the engine does when no
action can emit a row that is not such a copy (see
``SimulationEngine.__init__``).  ``K`` must also be a key of the first
table (``E``); when it repeats a key there, the fold falls back to the
reference grouping, so a caller's promise never merges two units.

Each group is seeded with a fresh ``dict`` of its first row, so the
combined rows share nothing with the input tables: the caller owns them
and may mutate them in place.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable

from .schema import AttributeType, Schema, SchemaError
from .table import EnvironmentTable

Row = dict[str, object]


def combine(table: EnvironmentTable) -> EnvironmentTable:
    """Compute ``⊕table``: one row per const-attribute group.

    The result is keyed by ``K`` whenever the const attributes are
    functionally determined by ``K`` -- which holds for every table derived
    from a keyed environment, since scripts cannot modify const attributes.
    """
    return combine_all([table], table.schema)


def combine_pair(left: EnvironmentTable, right: EnvironmentTable) -> EnvironmentTable:
    """``R ⊕ S`` -- shortcut for ``⊕(R ⊎ S)`` (Section 4.2).

    Implemented as the one-pass :func:`combine_all` so the multiset
    union (which copies every row) is never materialised.
    """
    return combine_all([left, right], left.schema)


def combine_all(
    tables: Iterable[EnvironmentTable], schema: Schema, *, by_key: bool = False
) -> EnvironmentTable:
    """Combine any number of effect tables into one.

    Exploits associativity by accumulating into a single hash of groups
    rather than materialising the intermediate multiset union, i.e. it is
    the ``⊕(⨄ ...)`` of Eq. (7) computed in one pass.  Groups come out in
    the order their first rows arrive.

    *by_key* groups on ``schema.key`` instead of every const attribute;
    the caller vouches that ``K`` determines the consts (see the module
    docstring).  If the first table repeats a key, the const grouping
    runs instead.
    """
    tables = list(tables)
    for table in tables:
        if table.schema != schema:
            raise SchemaError("⊕ requires identical schemas")
    if by_key and tables:
        key_of = itemgetter(schema.key)
        groups: dict[object, Row] = {key_of(row): dict(row) for row in tables[0]}
        if len(groups) == len(tables[0]):
            _fold(groups, tables[1:], key_of, schema)
            return _table(schema, groups)
        # K is no key of the first table: the const grouping instead
    groups = {}
    _fold(groups, tables, itemgetter(*schema.const_names), schema)
    return _table(schema, groups)


def _table(schema: Schema, groups: dict[object, Row]) -> EnvironmentTable:
    out = EnvironmentTable(schema)
    out.rows.extend(groups.values())
    return out


def _fold(
    groups: dict[object, Row],
    tables: Iterable[EnvironmentTable],
    group_of: Callable[[Row], object],
    schema: Schema,
) -> None:
    """Fold every row of *tables* into *groups* under ``group_of(row)``.

    A new group is a copy of its first row; later rows merge each effect
    attribute by its tag.  ``max``/``min`` replace only on a strict
    comparison with the new value on the left, which is what builtin
    ``max(acc, v)``/``min(acc, v)`` do: the first value wins a tie (``0``
    against ``0.0`` keeps the accumulator's type) and a NaN on either
    side leaves the accumulator as it is.
    """
    sums = [n for n in schema.effect_names if schema.tag_of(n) is AttributeType.SUM]
    maxes = [n for n in schema.effect_names if schema.tag_of(n) is AttributeType.MAX]
    mins = [n for n in schema.effect_names if schema.tag_of(n) is AttributeType.MIN]
    for table in tables:
        for row in table:
            group = group_of(row)
            acc = groups.get(group)
            if acc is None:
                groups[group] = dict(row)
                continue
            for n in sums:
                acc[n] = acc[n] + row[n]
            for n in maxes:
                v = row[n]
                if v > acc[n]:
                    acc[n] = v
            for n in mins:
                v = row[n]
                if v < acc[n]:
                    acc[n] = v
