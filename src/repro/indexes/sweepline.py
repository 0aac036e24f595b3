"""Sweep-line computation of min/max range aggregates (Figure 9).

Min and max are not divisible (Definition 5.1), so the prefix trick of
Figure 8 does not apply.  The paper's alternative exploits a common
game-design fact: all units of a type share the same query-range extent
("units of the same type all have the same weapon and visibility
range").  When the y-extent ``ry`` is constant across probes, one sweep
over y answers *every* probe:

* build a binary tree ordered on x over the source units, leaves
  initialised to the neutral value (±inf);
* sweep y; a source enters the window when the sweep reaches
  ``source.y - ry`` and leaves after ``source.y + ry``;
* when the sweep reaches a probe's own y ("the center of the range"),
  query the tree over the probe's x-interval in O(log n);
* percolate every leaf change up the tree.

Total O((n + m) log n) for n sources and m probes, with *no* dependence
on how many sources fall in each range -- the quantity that makes naive
min-in-range O(n²) on clustered armies.

Here each probe brings its own closed box ``[xlo, xhi] × [ylo, yhi]``
(:func:`boxes_around` makes the paper's ``[px ± rx] × [py ± ry]``), and
the sweep tests sources against exactly those bounds: x by bisecting the
x-order on ``xlo``/``xhi``, y by keeping the window on the sources with
``ylo <= sy <= yhi``.  Probes are visited by ``ylo``; while ``yhi`` is
non-decreasing too -- boxes of one extent -- every source enters and
leaves the window at most once (a drop in ``yhi`` restarts the window).
When sources outnumber probes, a source no box contains is dropped
before anything is sorted: it could never be reported, so the tree, the
sort and the window updates cost O((k + m) log k) for the k *visible*
sources, and every probe still sees the same sources.

:func:`sweep_minmax` returns, for every probe, the min (or max) source
value in its box; :func:`sweep_arg_minmax` also returns *which* source
attains it ("find the weakest unit in range").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from .interval_agg import IntervalAggregateIndex

_INF = float("inf")

#: ``(xlo, xhi, ylo, yhi)``: a probe's closed query box.
Box = tuple[float, float, float, float]


def boxes_around(
    probe_xy: Sequence[tuple[float, float]], rx: float, ry: float
) -> list[Box]:
    """The box ``[px - rx, px + rx] × [py - ry, py + ry]`` of each probe."""
    return [(px - rx, px + rx, py - ry, py + ry) for px, py in probe_xy]


def _cuts(lows: list[float], width: float) -> list[float]:
    """Sorted cut points about *width* apart.  ``bisect_right(cuts, v)``
    maps coordinates to cells monotonically, which is all correctness
    needs; the spacing only keeps a box at most *width* wide within
    about two cells per axis."""
    cuts: list[float] = []
    for v in sorted(lows):
        if not cuts or v - cuts[-1] >= width:
            cuts.append(v)
    return cuts


def _visible(
    source_xy: Sequence[tuple[float, float]], boxes: Sequence[Box]
) -> list[int]:
    """Indexes of the sources that some box contains, by the comparisons
    the sweep itself makes.  Each box is filed under the grid cells it
    overlaps; since the cell map is monotone, a source inside a box lies
    in one of that box's cells, so testing the boxes of its own cell
    finds it."""
    xcuts = _cuts([b[0] for b in boxes], max(b[1] - b[0] for b in boxes))
    ycuts = _cuts([b[2] for b in boxes], max(b[3] - b[2] for b in boxes))
    cells: dict[tuple[int, int], list[Box]] = {}
    for box in boxes:
        xlo, xhi, ylo, yhi = box
        for cx in range(bisect_right(xcuts, xlo), bisect_right(xcuts, xhi) + 1):
            for cy in range(
                bisect_right(ycuts, ylo), bisect_right(ycuts, yhi) + 1
            ):
                cells.setdefault((cx, cy), []).append(box)
    visible = []
    for i, (sx, sy) in enumerate(source_xy):
        cell = cells.get((bisect_right(xcuts, sx), bisect_right(ycuts, sy)))
        if cell is None:
            continue
        for xlo, xhi, ylo, yhi in cell:
            if xlo <= sx <= xhi and ylo <= sy <= yhi:
                visible.append(i)
                break
    return visible


def _run_sweep(
    source_xy: Sequence[tuple[float, float]],
    leaf_values: Sequence[object],
    boxes: Sequence[Box],
    kind: str,
    neutral: object,
) -> list[object]:
    """Shared sweep skeleton; *leaf_values* are what leaves hold while a
    source is inside the window (value floats, or (value, id) tuples for
    arg variants)."""
    m = len(boxes)
    results: list[object] = [neutral] * m
    if m == 0:
        return results

    # Filing the boxes costs O(m): it can only pay off when sources
    # outnumber probes (the AoE sweeps are the other way round).
    slots = (
        _visible(source_xy, boxes)
        if len(source_xy) > m
        else list(range(len(source_xy)))
    )
    # tree slot = x-rank among the kept sources (ties by input order)
    slots.sort(key=lambda i: source_xy[i][0])
    xs = [source_xy[i][0] for i in slots]
    leaves = [leaf_values[i] for i in slots]
    k = len(slots)
    tree = IntervalAggregateIndex(k, kind=kind, neutral=neutral)
    by_y = sorted(range(k), key=lambda s: source_xy[slots[s]][1])
    ys = [source_xy[slots[s]][1] for s in by_y]

    # the window holds the y-order positions [lo, hi): the sources with
    # ylo <= sy <= yhi of the current box
    lo = hi = 0
    top = -_INF
    for j in sorted(range(m), key=lambda j: boxes[j][2]):
        xlo, xhi, ylo, yhi = boxes[j]
        if yhi < top:
            # a lower top than the previous box's (mixed extents): the
            # admit pointer cannot move back, so restart the window
            for p in range(lo, hi):
                tree.clear(by_y[p])
            lo = hi = bisect_left(ys, ylo)
        top = yhi
        while hi < k and ys[hi] <= yhi:
            tree.set(by_y[hi], leaves[by_y[hi]])
            hi += 1
        while lo < hi and ys[lo] < ylo:
            tree.clear(by_y[lo])
            lo += 1
        results[j] = tree.query(bisect_left(xs, xlo), bisect_right(xs, xhi) - 1)
    return results


def sweep_minmax(
    source_xy: Sequence[tuple[float, float]],
    source_values: Sequence[float],
    probe_boxes: Sequence[Box],
    kind: str = "min",
) -> list[float | None]:
    """Per probe box, the min/max value of the sources inside it.

    Probes with no source in range yield ``None`` (matching the naive
    SQL semantics of min/max over an empty selection).
    """
    if kind not in ("min", "max"):
        raise ValueError("kind must be 'min' or 'max'")
    neutral = _INF if kind == "min" else -_INF
    raw = _run_sweep(source_xy, list(source_values), probe_boxes, kind, neutral)
    return [None if v == neutral else v for v in raw]


def sweep_arg_minmax(
    source_xy: Sequence[tuple[float, float]],
    source_values: Sequence[float],
    source_ids: Sequence[object],
    probe_boxes: Sequence[Box],
    kind: str = "min",
) -> list[tuple[float, object] | None]:
    """Per probe box, ``(value, id)`` of the extreme source inside it.

    *source_ids* must be mutually comparable: value ties break toward
    the smallest id, matching the argmin/argmax tie-break of the naive
    evaluator (see ``repro.sgl.sqlspec``).  Used for "find the weakest
    unit in range" where the acting unit needs the target's identity,
    not just its health value.
    """
    if kind not in ("min", "max"):
        raise ValueError("kind must be 'min' or 'max'")
    n = len(source_xy)
    # Run a MIN sweep in both directions (negating values for max) so the
    # tuple order (value', id) gives the smallest-id tie-break either way.
    sign = 1.0 if kind == "min" else -1.0
    leaves: list[object] = [
        (sign * float(source_values[i]), source_ids[i]) for i in range(n)
    ]
    neutral: object = (_INF, _MaxSentinel())
    raw = _run_sweep(source_xy, leaves, probe_boxes, "min", neutral)
    out: list[tuple[float, object] | None] = []
    for v in raw:
        if v is None or isinstance(v[1], _MaxSentinel):
            out.append(None)
        else:
            out.append((sign * v[0], v[1]))
    return out


class _MaxSentinel:
    """Compares greater than every id; marks empty sweep results."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return False

    def __gt__(self, other: object) -> bool:
        return not isinstance(other, _MaxSentinel)

    def __le__(self, other: object) -> bool:
        return isinstance(other, _MaxSentinel)

    def __ge__(self, other: object) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _MaxSentinel)

    def __hash__(self) -> int:
        return 0
