"""Figure-9 sweep-line min/max vs brute force, incl. argmin tie-breaks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.sweepline import boxes_around, sweep_arg_minmax, sweep_minmax

coord = st.integers(-20, 20)
value = st.integers(-10, 10)
sources = st.lists(st.tuples(coord, coord, value), max_size=40)
probes = st.lists(st.tuples(coord, coord), max_size=25)
extent = st.integers(0, 8)


def brute(sources, px, py, rx, ry, kind):
    hits = [
        v for x, y, v in sources if abs(x - px) <= rx and abs(y - py) <= ry
    ]
    if not hits:
        return None
    return min(hits) if kind == "min" else max(hits)


class TestSweepMinMax:
    @settings(max_examples=150, deadline=None)
    @given(sources, probes, extent, extent, st.sampled_from(["min", "max"]))
    def test_matches_bruteforce(self, src, prb, rx, ry, kind):
        xy = [(x, y) for x, y, _ in src]
        values = [v for _, _, v in src]
        results = sweep_minmax(xy, values, boxes_around(prb, rx, ry), kind)
        for (px, py), got in zip(prb, results):
            assert got == brute(src, px, py, rx, ry, kind)

    def test_empty_sources(self):
        assert sweep_minmax([], [], boxes_around([(0, 0)], 5, 5), "min") == [None]

    def test_empty_probes(self):
        assert sweep_minmax([(0, 0)], [1], [], "min") == []

    def test_probe_on_boundary_included(self):
        # source exactly rx/ry away is inside the closed box
        result = sweep_minmax([(3, 4)], [7], boxes_around([(0, 0)], 3, 4), "min")
        assert result == [7]

    def test_probe_just_outside_excluded(self):
        result = sweep_minmax([(3, 4)], [7], boxes_around([(0, 0)], 2, 4), "min")
        assert result == [None]

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            sweep_minmax([], [], [], "sum")


class TestSweepArgMinMax:
    @settings(max_examples=120, deadline=None)
    @given(sources, probes, extent, extent, st.sampled_from(["min", "max"]))
    def test_value_matches_bruteforce(self, src, prb, rx, ry, kind):
        xy = [(x, y) for x, y, _ in src]
        values = [v for _, _, v in src]
        keys = list(range(len(src)))
        results = sweep_arg_minmax(
            xy, values, keys, boxes_around(prb, rx, ry), kind
        )
        for (px, py), got in zip(prb, results):
            expected = brute(src, px, py, rx, ry, kind)
            if expected is None:
                assert got is None
            else:
                assert got[0] == expected

    @settings(max_examples=120, deadline=None)
    @given(sources, probes, extent, extent, st.sampled_from(["min", "max"]))
    def test_tie_breaks_toward_smallest_key(self, src, prb, rx, ry, kind):
        xy = [(x, y) for x, y, _ in src]
        values = [v for _, _, v in src]
        keys = list(range(len(src)))
        results = sweep_arg_minmax(
            xy, values, keys, boxes_around(prb, rx, ry), kind
        )
        for (px, py), got in zip(prb, results):
            hits = [
                (v, k)
                for k, (x, y, v) in enumerate(src)
                if abs(x - px) <= rx and abs(y - py) <= ry
            ]
            if not hits:
                assert got is None
                continue
            best_value = (
                min(v for v, _ in hits) if kind == "min"
                else max(v for v, _ in hits)
            )
            best_key = min(k for v, k in hits if v == best_value)
            assert got == (best_value, best_key)

    def test_identity_returned(self):
        result = sweep_arg_minmax(
            [(0, 0), (1, 0)], [9, 3], ["a", "b"], [(-2, 2, -2, 2)], "min"
        )
        assert result == [(3, "b")]


# -- float boxes: every probe brings its own [xlo, xhi] x [ylo, yhi] -------

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
tie_prone = st.sampled_from([-1.5, -0.0, 0.0, 2.0, 7.25])


@st.composite
def float_scenes(draw):
    """Float sources (duplicates, -0.0 and value ties included) and boxes
    whose edges are often exactly some source's coordinates."""
    points = draw(st.lists(st.tuples(finite | tie_prone, finite | tie_prone),
                           max_size=30))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=6))
    values = draw(st.lists(finite | tie_prone, min_size=len(points),
                           max_size=len(points)))
    xs = st.sampled_from([x for x, _ in points]) if points else finite
    ys = st.sampled_from([y for _, y in points]) if points else finite
    corners = st.tuples(xs | finite, xs | finite, ys | finite, ys | finite)
    boxes = [
        (min(a, b), max(a, b), min(c, d), max(c, d))
        for a, b, c, d in draw(st.lists(corners, max_size=20))
    ]
    return points, values, boxes


def hits_in(points, values, box):
    xlo, xhi, ylo, yhi = box
    return [
        (v, k)
        for k, ((x, y), v) in enumerate(zip(points, values))
        if xlo <= x <= xhi and ylo <= y <= yhi
    ]


class TestSweepFloatBoxes:
    @settings(max_examples=300, deadline=None)
    @given(float_scenes(), st.sampled_from(["min", "max"]))
    def test_minmax_matches_bruteforce(self, scene, kind):
        points, values, boxes = scene
        pick = min if kind == "min" else max
        for box, got in zip(boxes, sweep_minmax(points, values, boxes, kind)):
            hits = hits_in(points, values, box)
            assert got == (pick(v for v, _ in hits) if hits else None)

    @settings(max_examples=300, deadline=None)
    @given(float_scenes(), st.sampled_from(["min", "max"]))
    def test_arg_minmax_breaks_ties_toward_smallest_key(self, scene, kind):
        points, values, boxes = scene
        keys = list(range(len(points)))
        pick = min if kind == "min" else max
        results = sweep_arg_minmax(points, values, keys, boxes, kind)
        for box, got in zip(boxes, results):
            hits = hits_in(points, values, box)
            if not hits:
                assert got is None
                continue
            best = pick(v for v, _ in hits)
            assert got == (best, min(k for v, k in hits if v == best))

    def test_sources_on_every_edge_are_inside(self):
        points = [(0.1, 0.2), (0.3, 0.2), (0.2, 0.1), (0.2, 0.7000000000000001)]
        box = (0.1, 0.3, 0.1, 0.7000000000000001)
        assert sweep_arg_minmax(points, [4, 3, 2, 1], [0, 1, 2, 3], [box]) == [
            (1, 3)
        ]
        just_inside = (0.1, 0.3, 0.1, 0.7)  # one ulp short of the top edge
        assert sweep_minmax(points, [4, 3, 2, 1], [just_inside]) == [2]

    def test_negative_zero_ties_with_zero(self):
        got = sweep_arg_minmax(
            [(0.0, 0.0), (-0.0, -0.0)], [0.0, -0.0], ["b", "a"],
            [(-0.0, 0.0, 0.0, -0.0)],
        )
        assert got == [(0.0, "a")]

    def test_probes_that_see_nothing(self):
        boxes = [(5.0, 6.0, 5.0, 6.0), (-1.0, -0.5, 0.0, 1.0)]
        assert sweep_minmax([(0.0, 0.0)], [1.0], boxes) == [None, None]
        assert sweep_arg_minmax([], [], [], boxes, "max") == [None, None]
        assert sweep_arg_minmax([(0.0, 0.0)], [1.0], [0], [], "max") == []
