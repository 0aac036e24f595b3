"""Runtime values for SGL term evaluation.

SGL terms evaluate to:

* Python numbers (``int``/``float``) -- health, counts, coordinates;
* strings -- categorical data such as unit types;
* booleans -- condition results;
* :class:`Vec` -- small numeric vectors, from literals like
  ``(u.posx, u.posy)`` or vector-valued aggregates (centroids);
* :class:`Record` -- named tuples of values, from multi-output aggregates
  like ``GetNearestEnemy`` (accessed with ``.field``);
* ``None`` -- the result of min/max/avg/argmin aggregates over an empty
  selection.  Scripts are expected to guard such uses with count checks
  (Figure 3 tests ``c > 0`` before asking for the nearest enemy).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Iterator

from .errors import SglRuntimeError, SglTypeError


class Vec:
    """An immutable numeric vector with componentwise arithmetic."""

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = tuple(float(x) for x in items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[float]:
        return iter(self.items)

    def __getitem__(self, i: int) -> float:
        return self.items[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Vec):
            return self.items == other.items
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return f"Vec{self.items}"

    # componentwise arithmetic -----------------------------------------------------

    def _coerce(self, other: object, op: str) -> "Vec | None":
        """Coerce *other* for componentwise arithmetic.

        Returns ``None`` (SQL NULL propagation) when *other* is an
        all-``None`` record -- the result of a vector-valued aggregate
        over an empty selection, e.g. Figure 3's ``away_vector`` when no
        enemy is in range.
        """
        if isinstance(other, Vec):
            vec: "Vec | None" = other
        elif isinstance(other, Record):
            vec = other.as_vec()
            if vec is None:
                return None
        else:
            raise SglTypeError(f"cannot {op} Vec and {type(other).__name__}")
        if len(vec) != len(self):
            raise SglTypeError(
                f"cannot {op} vectors of lengths {len(self)} and {len(vec)}"
            )
        return vec

    def __add__(self, other: object) -> "Vec | None":
        vec = self._coerce(other, "add")
        if vec is None:
            return None
        return Vec(a + b for a, b in zip(self.items, vec.items))

    def __radd__(self, other: object) -> "Vec | None":
        return self.__add__(other)

    def __sub__(self, other: object) -> "Vec | None":
        vec = self._coerce(other, "subtract")
        if vec is None:
            return None
        return Vec(a - b for a, b in zip(self.items, vec.items))

    def __rsub__(self, other: object) -> "Vec | None":
        vec = self._coerce(other, "subtract")
        if vec is None:
            return None
        return Vec(b - a for a, b in zip(self.items, vec.items))

    def __mul__(self, scalar: object) -> "Vec":
        if not isinstance(scalar, (int, float)):
            raise SglTypeError("Vec can only be scaled by a number")
        return Vec(a * scalar for a in self.items)

    __rmul__ = __mul__

    def __truediv__(self, scalar: object) -> "Vec":
        if not isinstance(scalar, (int, float)):
            raise SglTypeError("Vec can only be divided by a number")
        return Vec(a / scalar for a in self.items)

    def __neg__(self) -> "Vec":
        return Vec(-a for a in self.items)

    def norm(self) -> float:
        return math.sqrt(sum(a * a for a in self.items))


class Record:
    """An immutable named tuple of values with ``.field`` access.

    Multi-output aggregates (``Avg(x) AS x, Avg(y) AS y``) and argmin/
    argmax aggregates (which return whole unit rows) produce records.
    """

    __slots__ = ("_fields",)

    def __init__(self, fields: Mapping[str, object]):
        object.__setattr__(self, "_fields", dict(fields))

    def __getattr__(self, name: str) -> object:
        fields = object.__getattribute__(self, "_fields")
        try:
            return fields[name]
        except KeyError:
            raise SglRuntimeError(f"record has no field {name!r}") from None

    def __setattr__(self, name: str, value: object) -> None:
        raise SglTypeError("records are immutable")

    def __reduce__(self):
        # default slots-pickling restores state via __setattr__, which
        # immutability forbids; rebuild through __init__ instead
        return (Record, (self._fields,))

    def get(self, name: str) -> object:
        try:
            return self._fields[name]
        except KeyError:
            raise SglRuntimeError(f"record has no field {name!r}") from None

    def keys(self):
        return self._fields.keys()

    def as_dict(self) -> dict[str, object]:
        return dict(self._fields)

    def as_vec(self) -> "Vec | None":
        """Coerce an all-numeric record to a :class:`Vec` in field order.

        Returns ``None`` (NULL) when any field is ``None`` -- a record
        produced by an aggregate over an empty selection.
        """
        values = list(self._fields.values())
        if any(v is None for v in values):
            return None
        if not all(isinstance(v, (int, float)) for v in values):
            raise SglTypeError("record with non-numeric fields cannot be a Vec")
        return Vec(values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Record):
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._fields.items())))

    def __sub__(self, other: object) -> Vec:
        return self.as_vec() - other

    def __rsub__(self, other: object) -> Vec:
        if isinstance(other, Vec):
            return other - self.as_vec()
        raise SglTypeError(f"cannot subtract Record from {type(other).__name__}")

    def __add__(self, other: object) -> Vec:
        return self.as_vec() + other

    __radd__ = __add__

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._fields.items())
        return f"Record({inner})"


def field_of(value: object, name: str) -> object:
    """Evaluate ``value.name`` for unit rows, records, and vectors."""
    if type(value) is Record:  # ahead of the (slow) Mapping ABC check
        return value.get(name)
    if type(value) is dict or isinstance(value, Mapping):
        try:
            return value[name]
        except KeyError:
            raise SglRuntimeError(f"unit has no attribute {name!r}") from None
    if isinstance(value, Record):
        return value.get(name)
    if isinstance(value, Vec) and name in ("x", "y", "z"):
        index = "xyz".index(name)
        if index < len(value):
            return value[index]
        raise SglRuntimeError(f"vector of length {len(value)} has no {name!r}")
    if value is None:
        # NULL propagation: a field of an empty aggregate result is NULL.
        # Downstream comparisons treat NULL as false and key look-ups on
        # NULL match nothing, so unguarded scripts degrade gracefully.
        return None
    raise SglTypeError(f"cannot access field {name!r} of {type(value).__name__}")
