"""The three unit types of the battle simulation (Section 3.2).

* **Knights** move and attack.  Armored (harder to hit), highest damage,
  but only reach adjacent cells ("arm's reach").
* **Archers** move and attack.  Unarmored, weaker arrows, much larger
  attack range.
* **Healers** move and heal.  Unarmored; project a nonstackable healing
  aura that restores health to friendly units in range, never beyond a
  unit's initial health.

Profiles follow low-level d20 SRD stat blocks; the exact numbers matter
less than the relationships the paper calls out (armor/damage/range
trade-offs), and all of them live in the environment relation so SGL
scripts -- not engine code -- decide behaviour.
"""

from __future__ import annotations

from ..env.schema import Schema, battle_schema
from .d20 import CombatProfile

KNIGHT = "knight"
ARCHER = "archer"
HEALER = "healer"

UNIT_TYPES = (KNIGHT, ARCHER, HEALER)

#: d20-flavoured stat blocks.  ``morale`` is the visible-enemy count at
#: which the unit routs (Figure 3's ``c > u.morale``).
PROFILES: dict[str, CombatProfile] = {
    KNIGHT: CombatProfile(
        health=20, armor=4, attack_bonus=4, damage_die=8, damage_bonus=2,
        attack_range=1, sight=10, speed=1, morale=12,
    ),
    ARCHER: CombatProfile(
        health=12, armor=1, attack_bonus=3, damage_die=6, damage_bonus=0,
        attack_range=8, sight=12, speed=1, morale=6,
    ),
    HEALER: CombatProfile(
        health=10, armor=1, attack_bonus=0, damage_die=4, damage_bonus=0,
        attack_range=3, sight=10, speed=1, morale=4,
    ),
}

#: Game constants shared by scripts and mechanics (Figure 5 style).
GAME_CONSTANTS: dict[str, object] = {
    "_HEAL_AURA": 3,        # health restored by a healing aura per tick
    "_HEALER_RANGE": 3,     # half-extent of the aura box
    "_TIME_RELOAD": 2,      # cooldown ticks after using a weapon
    "_BASE_AC": 10,         # d20 base armor class
    "_CLOSE_RANKS_SPREAD": 4.0,  # stddev threshold for knight formation
}


def unit_row(
    key: int,
    player: int,
    unittype: str,
    posx: int,
    posy: int,
    *,
    schema: Schema | None = None,
) -> dict[str, object]:
    """A fully-populated environment row for one unit."""
    if unittype not in PROFILES:
        raise ValueError(f"unknown unit type {unittype!r}")
    profile = PROFILES[unittype]
    schema = schema or battle_schema()
    row = schema.default_row()
    row.update(
        key=key,
        player=player,
        unittype=unittype,
        posx=posx,
        posy=posy,
        health=profile.health,
        max_health=profile.health,
        cooldown=0,
        range=profile.attack_range,
        sight=profile.sight,
        morale=profile.morale,
        armor=profile.armor,
        attack_bonus=profile.attack_bonus,
        damage_die=profile.damage_die,
        damage_bonus=profile.damage_bonus,
        speed=profile.speed,
    )
    return row
