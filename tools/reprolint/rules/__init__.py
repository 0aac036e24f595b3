"""Rule registry: determinism, concurrency, wire, safety and hygiene packs."""

from __future__ import annotations

from ..engine import Rule
from .concurrency import CONCURRENCY_RULES
from .determinism import DETERMINISM_RULES
from .hygiene import HYGIENE_RULES
from .safety import SAFETY_RULES
from .wire import WIRE_RULES

ALL_RULES: list[Rule] = [
    *DETERMINISM_RULES, *CONCURRENCY_RULES, *WIRE_RULES, *SAFETY_RULES,
    *HYGIENE_RULES,
]

RULES_BY_ID: dict[str, Rule] = {r.id: r for r in ALL_RULES}

__all__ = ["ALL_RULES", "RULES_BY_ID"]
