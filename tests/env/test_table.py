"""EnvironmentTable multiset semantics and algebra primitives."""

import pytest

from repro.env.schema import Attribute, AttributeType, Schema, SchemaError
from repro.env.table import EnvironmentTable, TableDelta, diff_by_key


@pytest.fixture()
def schema():
    c, s = AttributeType.CONST, AttributeType.SUM
    return Schema(
        [Attribute("key", c), Attribute("pos", c), Attribute("damage", s)]
    )


def row(key, pos=0, damage=0):
    return {"key": key, "pos": pos, "damage": damage}


class TestBasics:
    def test_empty(self, schema):
        table = EnvironmentTable(schema)
        assert len(table) == 0
        assert not table

    def test_insert_and_iterate(self, schema):
        table = EnvironmentTable(schema, [row(1), row(2)])
        assert len(table) == 2
        assert [r["key"] for r in table] == [1, 2]

    def test_insert_validates(self, schema):
        table = EnvironmentTable(schema)
        with pytest.raises(SchemaError):
            table.insert({"key": 1})

    def test_insert_copies_rows(self, schema):
        source = row(1)
        table = EnvironmentTable(schema, [source])
        source["damage"] = 99
        assert table.rows[0]["damage"] == 0

    def test_insert_unit_uses_defaults(self, schema):
        table = EnvironmentTable(schema)
        stored = table.insert_unit(key=1, pos=5)
        assert stored["damage"] == 0

    def test_insert_unit_rejects_unknown(self, schema):
        with pytest.raises(SchemaError):
            EnvironmentTable(schema).insert_unit(key=1, pos=0, bogus=2)

    def test_insert_unit_requires_const_values(self, schema):
        # key/pos have no defaults; omitting them must fail
        with pytest.raises(SchemaError):
            EnvironmentTable(schema).insert_unit(key=1)

    def test_column(self, schema):
        table = EnvironmentTable(schema, [row(1, 5), row(2, 7)])
        assert table.column("pos") == [5, 7]

    def test_by_key(self, schema):
        table = EnvironmentTable(schema, [row(1), row(2)])
        assert set(table.by_key()) == {1, 2}

    def test_by_key_rejects_duplicates(self, schema):
        table = EnvironmentTable(schema, [row(1), row(1)])
        with pytest.raises(ValueError):
            table.by_key()


class TestAlgebraPrimitives:
    def test_select(self, schema):
        table = EnvironmentTable(schema, [row(1, 1), row(2, 2), row(3, 3)])
        picked = table.select(lambda r: r["pos"] >= 2)
        assert [r["key"] for r in picked] == [2, 3]

    def test_project(self, schema):
        table = EnvironmentTable(schema, [row(1, 5, 3)])
        projected = table.project(["key", "damage"])
        assert projected.schema.names == ("key", "damage")
        assert projected.rows == [{"key": 1, "damage": 3}]

    def test_union_is_multiset(self, schema):
        a = EnvironmentTable(schema, [row(1)])
        b = EnvironmentTable(schema, [row(1)])
        assert len(a.union(b)) == 2

    def test_union_requires_same_schema(self, schema):
        other = Schema([Attribute("key", AttributeType.CONST)])
        with pytest.raises(SchemaError):
            EnvironmentTable(schema).union(EnvironmentTable(other))

    def test_union_does_not_alias_source_rows(self, schema):
        # regression: mutating a union result row used to corrupt the
        # source tables, because union shared the row dicts
        a = EnvironmentTable(schema, [row(1)])
        b = EnvironmentTable(schema, [row(2)])
        merged = a.union(b)
        merged.rows[0]["damage"] = 99
        merged.rows[1]["damage"] = 99
        assert a.rows[0]["damage"] == 0
        assert b.rows[0]["damage"] == 0


class TestDiffByKey:
    def test_empty_diff(self, schema):
        a = EnvironmentTable(schema, [row(1), row(2)])
        b = EnvironmentTable(schema, [row(2), row(1)])
        delta = diff_by_key(a, b)
        assert isinstance(delta, TableDelta)
        assert delta.changed == 0

    def test_insert_delete_update(self, schema):
        a = EnvironmentTable(schema, [row(1), row(2), row(3)])
        b = EnvironmentTable(schema, [row(2, damage=5), row(3), row(4)])
        delta = diff_by_key(a, b)
        assert [r["key"] for r in delta.inserted] == [4]
        assert [r["key"] for r in delta.deleted] == [1]
        assert [(o["key"], n["damage"]) for o, n in delta.updated] == [(2, 5)]
        assert delta.changed == 3

    def test_updated_pairs_reference_source_objects(self, schema):
        a = EnvironmentTable(schema, [row(1)])
        b = EnvironmentTable(schema, [row(1, pos=9)])
        delta = diff_by_key(a, b)
        old, new = delta.updated[0]
        assert old is a.rows[0]
        assert new is b.rows[0]

    def test_duplicate_keys_return_none(self, schema):
        dup = EnvironmentTable(schema, [row(1), row(1)])
        keyed = EnvironmentTable(schema, [row(1)])
        assert diff_by_key(dup, keyed) is None
        assert diff_by_key(keyed, dup) is None

    def test_same_object_duplicate_returns_none(self, schema):
        # the duplicate may literally be the same dict appended twice
        shared = row(1)
        dup = EnvironmentTable(schema)
        dup.rows.extend([shared, shared])
        keyed = EnvironmentTable(schema, [row(1)])
        assert diff_by_key(dup, keyed) is None

    def test_schema_mismatch_returns_none(self, schema):
        other = Schema([Attribute("key", AttributeType.CONST)])
        assert (
            diff_by_key(EnvironmentTable(schema), EnvironmentTable(other))
            is None
        )

    def test_diff_to_an_empty_table_deletes_every_row(self, schema):
        old = EnvironmentTable(schema, [row(1)])
        delta = diff_by_key(old, EnvironmentTable(schema))
        assert delta.deleted == old.rows and delta.changed == 1
        assert delta.base_size == 0


class TestMultisetEquality:
    def test_order_independent(self, schema):
        a = EnvironmentTable(schema, [row(1), row(2)])
        b = EnvironmentTable(schema, [row(2), row(1)])
        assert a == b

    def test_multiplicity_matters(self, schema):
        a = EnvironmentTable(schema, [row(1), row(1)])
        b = EnvironmentTable(schema, [row(1)])
        assert a != b

    def test_unhashable(self, schema):
        with pytest.raises(TypeError):
            hash(EnvironmentTable(schema))

    def test_copy_deep(self, schema):
        a = EnvironmentTable(schema, [row(1)])
        b = a.copy()
        b.rows[0]["damage"] = 7
        assert a.rows[0]["damage"] == 0
