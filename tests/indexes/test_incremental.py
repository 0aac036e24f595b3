"""Incremental insert/delete/update paths of the Section 5.3 indexes.

Every mutated structure must answer queries exactly like a structure
freshly built from the post-mutation row set -- the invariant the
delta-driven maintenance subsystem in the indexed evaluator relies on.
"""

import random

import pytest

from repro.indexes.agg_range_tree import AggRangeTree2D, PrefixAggregate1D
from repro.indexes.composite import GroupAggIndex
from repro.indexes.hash_layer import PartitionedIndex
from repro.indexes.kdtree import KDTree


def rect_queries(rng, n=20, span=30):
    for _ in range(n):
        xlo = rng.randrange(span)
        ylo = rng.randrange(span)
        yield xlo, xlo + rng.randrange(span), ylo, ylo + rng.randrange(span)


class TestAggRangeTree2DDelta:
    def test_insert_delete_matches_rebuild(self):
        rng = random.Random(5)
        points = [(rng.randrange(30), rng.randrange(30)) for _ in range(60)]
        values = [(float(rng.randrange(10)),) for _ in points]
        tree = AggRangeTree2D.from_rows(points, values)

        for _ in range(15):  # delete a built-in element
            i = rng.randrange(len(points))
            tree.delete(points.pop(i), values.pop(i))
        for _ in range(10):  # insert fresh elements
            p, v = (rng.randrange(30), rng.randrange(30)), (float(rng.randrange(10)),)
            points.append(p)
            values.append(v)
            tree.insert(p, v)

        rebuilt = AggRangeTree2D.from_rows(points, values)
        assert len(tree) == len(rebuilt) == len(points)
        assert tree.overlay_size > 0
        for box in rect_queries(random.Random(6)):
            assert tree.query(*box) == rebuilt.query(*box)

    def test_delete_of_inserted_element_cancels(self):
        tree = AggRangeTree2D.from_rows([(0, 0)], [(1.0,)])
        tree.insert((5, 5), (2.0,))
        tree.delete((5, 5), (2.0,))
        assert tree.overlay_size == 0
        assert len(tree) == 1
        assert tree.query(0, 10, 0, 10)[0].count == 1

    def test_empty_build_then_insert(self):
        tree = AggRangeTree2D.from_rows([], [], width=1)
        tree.insert((3, 4), (7.0,))
        moments = tree.query(0, 10, 0, 10)[0]
        assert (moments.count, moments.total) == (1, 7.0)

    def test_measure_width_enforced(self):
        tree = AggRangeTree2D.from_rows([(0, 0)], [(1.0,)])
        with pytest.raises(ValueError):
            tree.insert((1, 1), (1.0, 2.0))


class TestPrefixAggregate1DDelta:
    def test_insert_delete_matches_rebuild(self):
        rng = random.Random(7)
        keys = [float(rng.randrange(50)) for _ in range(40)]
        values = [(float(rng.randrange(9)),) for _ in keys]
        agg = PrefixAggregate1D.from_rows(keys, values)

        for _ in range(10):
            i = rng.randrange(len(keys))
            agg.delete(keys.pop(i), values.pop(i))
        for _ in range(8):
            k, v = float(rng.randrange(50)), (float(rng.randrange(9)),)
            keys.append(k)
            values.append(v)
            agg.insert(k, v)

        rebuilt = PrefixAggregate1D.from_rows(keys, values)
        assert len(agg) == len(rebuilt)
        for _ in range(20):
            lo = rng.randrange(50)
            hi = lo + rng.randrange(20)
            assert agg.query(lo, hi) == rebuilt.query(lo, hi)

    def test_count_only_overlay(self):
        agg = PrefixAggregate1D.from_rows([1.0, 2.0, 3.0])
        agg.delete(2.0)
        agg.insert(5.0)
        assert agg.count(0, 10) == 3
        assert agg.count(0, 4) == 2


class TestKDTreeDelta:
    def positions(self, rng, n):
        return [(rng.randrange(40), rng.randrange(40)) for _ in range(n)]

    def test_insert_delete_matches_rebuild(self):
        rng = random.Random(11)
        points = self.positions(rng, 50)
        items = list(range(50))
        tree = KDTree(points, items)

        for _ in range(12):
            i = rng.randrange(len(points))
            point, item = points.pop(i), items.pop(i)
            assert tree.delete(point, lambda it, item=item: it == item)
        for j in range(12, 24):
            p = (rng.randrange(40), rng.randrange(40))
            points.append(p)
            items.append(100 + j)
            tree.insert(p, 100 + j)

        rebuilt = KDTree(points, items)
        assert len(tree) == len(rebuilt)
        tie = lambda it: it  # noqa: E731
        for _ in range(25):
            probe = (rng.randrange(40), rng.randrange(40))
            assert (
                tree.nearest(probe, tie_key=tie)
                == rebuilt.nearest(probe, tie_key=tie)
            )
            assert sorted(tree.within_radius(probe, 6)) == sorted(
                rebuilt.within_radius(probe, 6)
            )

    def test_delete_missing_returns_false(self):
        tree = KDTree([(1, 1)], ["a"])
        assert not tree.delete((2, 2), lambda it: True)
        assert not tree.delete((1, 1), lambda it: it == "b")

    def test_delete_with_duplicate_coordinates(self):
        # equal sort-coordinates land on both sides of the median split;
        # deletion must find them regardless
        points = [(5, i % 3) for i in range(9)]
        items = list(range(9))
        tree = KDTree(points, items)
        for item in range(9):
            assert tree.delete(points[item], lambda it, i=item: it == i)
        assert len(tree) == 0
        assert tree.nearest((5, 1)) is None

    def test_replace_item_in_place(self):
        tree = KDTree([(1, 1), (4, 4)], ["old", "other"])
        assert tree.replace_item((1, 1), lambda it: it == "old", "new")
        item, _ = tree.nearest((0, 0))
        assert item == "new"
        assert not tree.replace_item((9, 9), lambda it: True, "x")

    def test_insert_into_empty(self):
        tree = KDTree([], [])
        tree.insert((2, 3), "only")
        assert tree.nearest((0, 0)) == ("only", 13.0)

    def test_deep_insert_chain_does_not_recurse_out(self):
        # regression: monotone dynamic inserts form a linear chain far
        # deeper than the interpreter's recursion limit; searches must
        # degrade in time only, never raise RecursionError
        import sys

        depth = sys.getrecursionlimit() + 500
        tree = KDTree([(0, 0)], [0])
        for i in range(1, depth):
            tree.insert((i, i), i)
        item, dist_sq = tree.nearest((depth, depth), tie_key=lambda it: it)
        assert item == depth - 1 and dist_sq == 2.0
        assert len(tree.within_radius((depth - 1, depth - 1), 1.5)) == 2
        assert tree.delete((depth - 1, depth - 1), lambda it: it == depth - 1)
        assert tree.nearest((depth, depth))[0] == depth - 2


def make_rows(rng, n, players=2):
    return [
        {
            "key": k,
            "player": rng.randrange(players),
            "posx": rng.randrange(30),
            "posy": rng.randrange(30),
            "health": float(rng.randrange(1, 20)),
        }
        for k in range(n)
    ]


class TestPartitionedIncremental:
    def test_list_groups_track_rebuild(self):
        rng = random.Random(3)
        rows = make_rows(rng, 30)
        index = PartitionedIndex(rows, ("player",), factory=list)

        removed = [rows.pop(rng.randrange(len(rows))) for _ in range(8)]
        for row in removed:
            index.delete(dict(row))  # delete via a value-equal snapshot
        added = make_rows(random.Random(4), 5)
        for i, row in enumerate(added):
            row["key"] = 100 + i
            rows.append(row)
            index.insert(row)

        rebuilt = PartitionedIndex(rows, ("player",), factory=list)
        assert len(index) == len(rebuilt)
        assert set(index.groups) == set(rebuilt.groups)
        for key in index.groups:
            assert sorted(r["key"] for r in index.groups[key]) == sorted(
                r["key"] for r in rebuilt.groups[key]
            )
        assert index.mutations == 13

    def test_group_created_and_dropped(self):
        rows = [{"key": 0, "player": 0}]
        index = PartitionedIndex(rows, ("player",), factory=list)
        index.insert({"key": 1, "player": 7})
        assert index.probe((7,)) is not None
        index.delete({"key": 1, "player": 7})
        assert index.probe((7,)) is None
        assert index.group_size((7,)) == 0

    def test_update_reroutes_category_change(self):
        rows = [{"key": 0, "player": 0}, {"key": 1, "player": 0}]
        index = PartitionedIndex(rows, ("player",), factory=list)
        index.update({"key": 1, "player": 0}, {"key": 1, "player": 1})
        assert [r["key"] for r in index.probe((1,))] == [1]
        assert [r["key"] for r in index.probe((0,))] == [0]

    def test_delete_from_missing_group_raises(self):
        index = PartitionedIndex([], ("player",), factory=list)
        with pytest.raises(KeyError):
            index.delete({"key": 0, "player": 3})

    def test_non_list_requires_adapters(self):
        index = PartitionedIndex(
            [{"key": 0, "player": 0, "posx": 1, "posy": 2}],
            ("player",),
            factory=lambda group: KDTree(
                [(r["posx"], r["posy"]) for r in group], group
            ),
        )
        with pytest.raises(TypeError):
            index.insert({"key": 1, "player": 0, "posx": 3, "posy": 4})

    def test_agg_group_adapters_match_rebuild(self):
        rng = random.Random(9)
        rows = make_rows(rng, 40)
        measures = [lambda r: r["health"]]

        def factory(group):
            return GroupAggIndex(group, ("posx", "posy"), measures)

        def build(source):
            return PartitionedIndex(
                source,
                ("player",),
                factory=factory,
                row_insert=lambda g, r: g.insert(r),
                row_delete=lambda g, r: g.delete(r),
            )

        index = build(rows)
        for _ in range(10):
            row = rows.pop(rng.randrange(len(rows)))
            index.delete(row)
        fresh = make_rows(random.Random(10), 6)
        for i, row in enumerate(fresh):
            row["key"] = 200 + i
            rows.append(row)
            index.insert(row)

        rebuilt = build(rows)
        for key in set(index.groups) | set(rebuilt.groups):
            for box in rect_queries(random.Random(12), n=10):
                bounds = [(box[0], box[1]), (box[2], box[3])]
                assert index.probe(key).query(bounds) == rebuilt.probe(
                    key
                ).query(bounds)


class TestGroupAggIndexDelta:
    def test_zero_dim_totals(self):
        rows = [{"health": 3.0}, {"health": 5.0}]
        group = GroupAggIndex(rows, (), [lambda r: r["health"]])
        group.insert({"health": 7.0})
        group.delete({"health": 3.0})
        moments = group.query([])[0]
        assert (moments.count, moments.total) == (2, 12.0)

    def test_zero_dim_count_only(self):
        group = GroupAggIndex([{"x": 1}], (), [])
        group.insert({"x": 2})
        assert group.query([])[0].count == 2

    def test_values_of(self):
        group = GroupAggIndex(
            [{"posx": 1, "posy": 2, "health": 3.0}],
            ("posx", "posy"),
            [lambda r: r["health"], lambda r: r["posx"] * 2],
        )
        assert group.values_of({"posx": 4, "posy": 0, "health": 1.5}) == (1.5, 8)
