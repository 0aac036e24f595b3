"""The post-decision tail: ⊕ on the key, mechanics owning ⊕'s rows.

The engine's ⊕ groups on ``K`` whenever its registry guarantees every
effect row is a copy of an ``E`` row (no native action, no action that
writes a const attribute).  These tests hold that ⊕ to the reference
const-signature grouping on every tick of a pinned battle, serial and
over process workers; check both fallbacks; pin the NaN-const unit that
the const grouping duplicated under process workers; and check that a
tick never mutates the tick-start rows, now that mechanics updates ⊕'s
copies in place.
"""

import math

import pytest

import repro.engine.clock as clock
from repro.api import GameDefinition, compile_script
from repro.engine.postprocess import example_41_postprocess
from repro.env.combine import combine_all
from repro.game.battle import BattleSimulation
from repro.game.scripts import build_registry
from tests.conftest import make_env

SHARDS = 2
LAYOUTS = [
    pytest.param({}, id="serial"),
    pytest.param(
        {"num_shards": SHARDS, "parallelism": "processes",
         "max_workers": SHARDS},
        id="processes",
    ),
]


def typed(rows):
    """Rows in order with every value's type and ``repr``."""
    return [
        [(name, type(value).__name__, repr(value)) for name, value in row.items()]
        for row in rows
    ]


@pytest.fixture
def checked_combine(monkeypatch):
    """Swap the engine's ⊕ for one that also runs the reference grouping
    on the same tables and records ``(by_key, rows in, equal)``."""
    calls = []

    def check(tables, schema, *, by_key=False):
        tables = list(tables)
        got = combine_all(tables, schema, by_key=by_key)
        want = combine_all(tables, schema)
        calls.append(
            (by_key, sum(len(t) for t in tables),
             typed(got.rows) == typed(want.rows))
        )
        return got

    monkeypatch.setattr(clock, "combine_all", check)
    return calls


@pytest.mark.parametrize("layout", LAYOUTS)
def test_battle_oplus_on_the_key_equals_the_reference(checked_combine, layout):
    with BattleSimulation(300, seed=11, **layout) as sim:
        sim.run(8)
    assert len(checked_combine) == 8
    assert all(by_key for by_key, _, _ in checked_combine)
    # effect rows arrived every tick, and every tick agreed
    assert all(rows_in > 300 for _, rows_in, _ in checked_combine)
    assert all(equal for _, _, equal in checked_combine)


def one_script_game(schema, registry, script="main(u) { }"):
    return GameDefinition(
        schema=schema,
        registry=registry,
        scripts={
            t: compile_script(script, registry, schema)
            for t in ("knight", "archer", "healer")
        },
    )


def mechanics(combined, rng, tick):
    return example_41_postprocess(combined)


def test_a_native_action_keeps_the_const_grouping(schema, checked_combine):
    registry = build_registry()

    def recruit(args, rt):
        (unit,) = args
        return [dict(unit, morale=unit["morale"] + 1)]  # a const written

    registry.register_native_action("Recruit", ("u",), recruit)
    script = "main(u) { if (u.key = 0) then perform Recruit(u); }"
    game = one_script_game(schema, registry, script)
    with game.engine(make_env(schema, n=12), mechanics) as engine:
        engine.tick()
        rows = engine.env.rows
    assert [by_key for by_key, _, _ in checked_combine] == [False]
    assert all(equal for _, _, equal in checked_combine)
    # the const grouping keeps the recruit as a unit of its own
    assert len(rows) == 13
    assert [r["morale"] for r in rows if r["key"] == 0] == [
        rows[0]["morale"], rows[0]["morale"] + 1
    ]


def test_an_action_writing_a_const_keeps_the_const_grouping(schema):
    registry = build_registry()
    registry.register_sql(
        "function Rally(u) returns SELECT e.key, 7 AS morale "
        "FROM E e WHERE e.key = u.key;"
    )
    with one_script_game(schema, registry).engine(
        make_env(schema, n=6), mechanics
    ) as engine:
        assert engine._combine_by_key is False
    with one_script_game(schema, build_registry()).engine(
        make_env(schema, n=6), mechanics
    ) as engine:
        assert engine._combine_by_key is True


@pytest.mark.parametrize("layout", LAYOUTS)
def test_nan_const_attribute_never_duplicates_a_unit(schema, layout):
    # unpickled from a worker, the NaN is another object, so a signature
    # tuple holding it no longer equals E's: the const grouping made a
    # second row for unit 3
    env = make_env(schema, n=40)
    env.rows[3]["morale"] = math.nan
    game = one_script_game(
        schema, build_registry(), "main(u) { perform MoveInDirection(u, 1, 0); }"
    )
    knobs = {"num_shards": SHARDS, **layout}
    with game.engine(env, mechanics, **knobs) as engine:
        engine.tick()
        keys = [row["key"] for row in engine.env.rows]
        moved = engine.env.rows[3]
    assert keys == list(range(40))
    assert math.isnan(moved["morale"]) and moved["posx"] != env.rows[3]["posx"]


@pytest.mark.parametrize(
    "layout",
    LAYOUTS + [pytest.param({"spectators": True}, id="publisher")],
)
def test_a_tick_never_mutates_the_tick_start_rows(layout):
    with BattleSimulation(200, seed=5, **layout) as sim:
        for _ in range(4):
            before = list(sim.environment.rows)
            snapshot = typed(before)
            sim.tick()
            assert typed(before) == snapshot
            assert not {id(r) for r in before} & {
                id(r) for r in sim.environment.rows
            }
