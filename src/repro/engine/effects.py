"""Area-of-effect combination: the ⊕ optimisation of Section 5.4.

Naively, n units performing area actions that each touch k units emit
O(n·k) effect rows.  The paper observes that "all area-of-effect actions
of the same type commonly have the same range", so "determining all of
the units in the range of an effect is the same as fixing a range and
determining all of the effects in the range of each unit": register the
*centers of effect* in an index, then compute, per affected unit, the
aggregate of in-range effect values -- max for nonstackable effects,
sum for stackable ones -- with the Section 5.3 machinery.

:func:`resolve_aoe` implements this.  Records are grouped by (action,
category values, extents); each group with a ``max``/``min``-tagged
target attribute runs a Figure-9 sweep over the centers; ``sum``-tagged
attributes use a Figure-8 prefix-aggregate tree over the centers.  The
output is at most one effect row per affected unit, regardless of how
many effects overlap it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..env.schema import AttributeType, Schema
from ..indexes.agg_range_tree import AggRangeTree2D
from ..indexes.sweepline import boxes_around, sweep_minmax
from .compile import compile_filter, row_scope


@dataclass(frozen=True)
class AoeRecord:
    """One deferred area-of-effect action instance."""

    action: str
    attr: str
    value: float
    center: tuple[float, float]
    extents: tuple[float, float]
    eq_vals: tuple
    neq_vals: tuple


def resolve_aoe(
    records: Sequence[AoeRecord],
    units: Sequence[Mapping[str, object]],
    schema: Schema,
    shapes: Mapping[str, object],
    constants: Mapping[str, object],
) -> list[dict[str, object]]:
    """Combine deferred AoE records into per-unit effect rows.

    *shapes* maps action names to their :class:`ActionShape` (for the
    target-side category attributes and build filters).  Returns effect
    rows ready to enter the tick's ⊕.
    """
    if not records:
        return []

    # group records: one batch per (action, eq values, neq values, extents)
    batches: dict[tuple, list[AoeRecord]] = {}
    for record in records:
        key = (
            record.action,
            record.eq_vals,
            record.neq_vals,
            (round(record.extents[0], 9), round(record.extents[1], 9)),
        )
        batches.setdefault(key, []).append(record)

    # accumulated combined values per (unit key, attr)
    out_rows: dict[tuple, dict[str, object]] = {}
    # each action's build filter, emitted once per call, not per batch
    filters = {
        action: compile_filter(shapes[action].e_only, row_scope(constants))
        for action in {key[0]: None for key in batches}
    }

    for (action, eq_vals, neq_vals, (rx, ry)), batch in batches.items():
        shape = shapes[action]
        attr = shape.effect_attr
        tag = schema.tag_of(attr)
        cat_attrs = shape.cat_attrs
        target_filter = filters[action]

        probes: list[Mapping[str, object]] = []
        for unit in units:
            key = tuple(unit[a] for a in cat_attrs)
            ne = len(eq_vals)
            if key[:ne] != eq_vals:
                continue
            if any(key[ne + i] == v for i, v in enumerate(neq_vals)):
                continue
            if target_filter is not None and not target_filter(unit):
                continue
            probes.append(unit)
        if not probes:
            continue

        ax, ay = shape.range_attrs
        probe_xy = [(float(u[ax]), float(u[ay])) for u in probes]
        centers = [r.center for r in batch]
        values = [r.value for r in batch]

        if tag in (AttributeType.MAX, AttributeType.MIN):
            kind = "max" if tag is AttributeType.MAX else "min"
            results = sweep_minmax(
                centers, values, boxes_around(probe_xy, rx, ry), kind
            )
        elif tag is AttributeType.SUM:
            xs, ys = zip(*centers)
            # only .total is read: no Σv² column
            tree = AggRangeTree2D(xs, ys, [values], squares=[False])
            results = []
            for px, py in probe_xy:
                moments, = tree.query(px - rx, px + rx, py - ry, py + ry)
                results.append(moments.total if moments.count else None)
        else:  # pragma: no cover - classifier rejects const targets
            raise ValueError(f"AoE effect on const attribute {attr!r}")

        for unit, combined in zip(probes, results):
            if combined is None:
                continue
            row_key = unit[schema.key]
            entry = out_rows.get((row_key,))
            if entry is None:
                entry = dict(unit)
                out_rows[(row_key,)] = entry
            current = entry[attr]
            if tag is AttributeType.MAX:
                entry[attr] = max(current, combined)
            elif tag is AttributeType.MIN:
                entry[attr] = min(current, combined)
            else:
                entry[attr] = current + combined

    return list(out_rows.values())
