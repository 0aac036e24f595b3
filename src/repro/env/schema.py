"""Environment-relation schemas with effect-combination tags.

Section 4.2 of the paper models the game state as a single relation
``E(K, A1, ..., Ak)`` where every attribute carries a *tag* describing how
concurrent effects on it are merged by the combination operator ``⊕``:

* ``const`` -- state attributes (key, player, position, health, ...) that
  scripts may read but never write.  They form the grouping key of ``⊕``.
* ``sum`` -- stackable effects (damage, movement vectors): all effects in a
  tick accumulate.
* ``max`` / ``min`` -- nonstackable effects (healing auras, freeze
  priorities): only the most extreme effect of the tick applies.

This module defines :class:`AttributeType`, :class:`Attribute` and
:class:`Schema`, the static description shared by every component of the
system (SGL scripts, the bag algebra, index construction, and the engine).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence


class AttributeType(enum.Enum):
    """Combination tag of an environment attribute (Section 4.2)."""

    CONST = "const"
    SUM = "sum"
    MAX = "max"
    MIN = "min"

    @property
    def is_effect(self) -> bool:
        """Whether attributes of this type may be written by scripts."""
        return self is not AttributeType.CONST


#: Neutral element of each effect aggregate.  A row whose effect attribute
#: holds the neutral value contributes nothing under ``⊕``.
_NEUTRAL = {
    AttributeType.SUM: 0,
    AttributeType.MAX: float("-inf"),
    AttributeType.MIN: float("inf"),
}


@dataclass(frozen=True)
class Attribute:
    """A single column of the environment relation.

    Parameters
    ----------
    name:
        Column name, e.g. ``"damage"``.
    tag:
        The combination tag (:class:`AttributeType`).
    default:
        Value the attribute is (re)initialised to at the start of every
        clock tick.  For effect attributes this should be a neutral element
        of the tag's aggregate; game schemas conventionally use ``0`` for
        ``max``-tagged auras because auras are never negative.
    """

    name: str
    tag: AttributeType
    default: object = None

    def __post_init__(self) -> None:
        if self.default is None and self.tag.is_effect:
            object.__setattr__(self, "default", _NEUTRAL[self.tag])

    @property
    def is_effect(self) -> bool:
        return self.tag.is_effect


class SchemaError(ValueError):
    """Raised for malformed schema definitions or unknown attributes."""


class Schema:
    """Ordered attribute list of an environment relation.

    The first declared ``const`` attribute named ``key`` (or passed via
    *key*) plays the role of ``K`` in the paper: it identifies a unit
    across effect rows and is the primary grouping attribute of ``⊕``.
    ``K`` need not be a key of the *multiset* -- effect tables routinely
    contain many rows per unit -- but it is a key of any combined table
    ``⊕R``.
    """

    def __init__(
        self, attributes: Iterable[Attribute], key: str = "key"
    ) -> None:
        self._attributes: tuple[Attribute, ...] = tuple(attributes)
        names = [a.name for a in self._attributes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute names: {dupes}")
        self._by_name: dict[str, Attribute] = {a.name: a for a in self._attributes}
        if key not in self._by_name:
            raise SchemaError(f"schema has no key attribute {key!r}")
        if self._by_name[key].tag is not AttributeType.CONST:
            raise SchemaError(f"key attribute {key!r} must be const-tagged")
        self.key = key

    # -- basic container protocol -------------------------------------------------

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes and self.key == other.key

    def __hash__(self) -> int:
        return hash((self._attributes, self.key))

    def __repr__(self) -> str:
        cols = ", ".join(f"{a.name}:{a.tag.value}" for a in self._attributes)
        return f"Schema({cols})"

    # -- derived views ------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes)

    @property
    def const_names(self) -> tuple[str, ...]:
        """Attributes forming the grouping key of ``⊕`` (Section 4.2)."""
        return tuple(a.name for a in self._attributes if not a.is_effect)

    @property
    def effect_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes if a.is_effect)

    def tag_of(self, name: str) -> AttributeType:
        return self[name].tag

    def default_row(self) -> dict[str, object]:
        """A row template with every attribute at its default value."""
        return {a.name: a.default for a in self._attributes}

    def effect_defaults(self) -> dict[str, object]:
        """Default values for just the effect attributes."""
        return {a.name: a.default for a in self._attributes if a.is_effect}

    # -- construction helpers -----------------------------------------------------

    def validate_row(self, row: Mapping[str, object]) -> None:
        """Raise :class:`SchemaError` unless *row* has exactly our columns."""
        missing = [n for n in self.names if n not in row]
        extra = [n for n in row if n not in self._by_name]
        if missing or extra:
            raise SchemaError(
                f"row does not match schema (missing={missing}, extra={extra})"
            )

    def subschema(self, names: Sequence[str]) -> "Schema":
        """Schema restricted to *names* (must include the key)."""
        unknown = [n for n in names if n not in self._by_name]
        if unknown:
            raise SchemaError(f"unknown attributes {unknown}")
        if self.key not in names:
            raise SchemaError(f"subschema must retain key {self.key!r}")
        keep = set(names)
        return Schema(
            (a for a in self._attributes if a.name in keep), key=self.key
        )


def battle_schema() -> Schema:
    """The schema of Eq. (1) in the paper, extended with unit statics.

    The paper's schema is ``E(key, player, posx, posy, health, cooldown,
    weaponused, movevect_x, movevect_y, damage, inaura)``.  The battle
    simulation of Section 3.2 additionally needs per-unit constants (unit
    type, maximum health, attack range, morale, speed); these are
    ``const``-tagged so they never participate in effects.
    """
    c, s, mx = AttributeType.CONST, AttributeType.SUM, AttributeType.MAX
    return Schema(
        [
            Attribute("key", c),
            Attribute("player", c),
            Attribute("unittype", c),
            Attribute("posx", c),
            Attribute("posy", c),
            Attribute("health", c),
            Attribute("max_health", c),
            Attribute("cooldown", c),
            Attribute("range", c),
            Attribute("sight", c),
            Attribute("morale", c),
            Attribute("armor", c),
            Attribute("attack_bonus", c),
            Attribute("damage_die", c),
            Attribute("damage_bonus", c),
            Attribute("speed", c),
            Attribute("weaponused", mx, default=0),
            Attribute("movevect_x", s, default=0.0),
            Attribute("movevect_y", s, default=0.0),
            Attribute("damage", s, default=0),
            Attribute("inaura", mx, default=0),
        ]
    )
