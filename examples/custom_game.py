"""A custom data-driven game built on the public API: zombie outbreak.

Demonstrates everything a game designer needs to ship their own game on
this engine -- no engine code, just data (Section 2's data-driven
architecture):

* a custom tagged schema;
* built-in aggregates/actions written in the restricted SQL fragment;
* per-unit-type SGL scripts (civilians flee, zombies chase and bite);
* custom game mechanics (bitten civilians rise as zombies).

The engine classifies the new aggregates automatically: the nearest-
zombie query gets a kD-tree, the panic count a Figure-8 tree (EXPLAIN
lists each call site with its index and cost).

    python examples/custom_game.py
"""

from repro import (
    Attribute,
    AttributeType,
    EnvironmentTable,
    FunctionRegistry,
    GameDefinition,
    Schema,
    compile_script,
    explain_script,
)
from repro.engine.movement import run_movement_phase

GRID = 40

SCHEMA = Schema(
    [
        Attribute("key", AttributeType.CONST),
        Attribute("unittype", AttributeType.CONST),
        Attribute("posx", AttributeType.CONST),
        Attribute("posy", AttributeType.CONST),
        Attribute("health", AttributeType.CONST),
        Attribute("speed", AttributeType.CONST),
        Attribute("movevect_x", AttributeType.SUM, default=0.0),
        Attribute("movevect_y", AttributeType.SUM, default=0.0),
        Attribute("damage", AttributeType.SUM, default=0),
    ]
)

BUILTINS = """
function NearestOfType(u, kind) returns
SELECT ArgMin((e.posx - u.posx) * (e.posx - u.posx)
            + (e.posy - u.posy) * (e.posy - u.posy))
FROM E e
WHERE e.unittype = kind;

function CountTypeInRange(u, kind, radius) returns
SELECT Count(*)
FROM E e
WHERE e.unittype = kind
  AND e.posx >= u.posx - radius AND e.posx <= u.posx + radius
  AND e.posy >= u.posy - radius AND e.posy <= u.posy + radius;

function Move(u, vx, vy) returns
SELECT e.key, vx AS movevect_x, vy AS movevect_y
FROM E e WHERE e.key = u.key;

function Bite(u, target_key) returns
SELECT e.key, e.damage + 1 + Random(e, 1) % 2 AS damage
FROM E e WHERE e.key = target_key;
"""

CIVILIAN = """
main(u) {
  (let danger = CountTypeInRange(u, 'zombie', _PANIC_RANGE)) {
    if (danger > 0) then
      (let z = NearestOfType(u, 'zombie')) {
        perform Move(u, u.posx - z.posx, u.posy - z.posy);
      };
    if (danger = 0) then
      perform Move(u, Random(1) % 3 - 1, Random(2) % 3 - 1);
  }
}
"""

ZOMBIE = """
main(u) {
  (let prey = CountTypeInRange(u, 'civilian', _SMELL_RANGE)) {
    if (prey > 0) then
      (let c = NearestOfType(u, 'civilian')) {
        if (abs(c.posx - u.posx) <= 1 and abs(c.posy - u.posy) <= 1) then
          perform Bite(u, c.key);
        else
          perform Move(u, c.posx - u.posx, c.posy - u.posy);
      }
  }
}
"""


def mechanics(combined: EnvironmentTable, rng, tick: int) -> EnvironmentTable:
    """Bitten civilians lose health; at zero they rise as zombies."""
    defaults = SCHEMA.effect_defaults()
    rows = []
    for row in combined:
        new_row = dict(row)
        new_row["health"] = new_row["health"] - new_row["damage"]
        if new_row["health"] <= 0 and new_row["unittype"] == "civilian":
            new_row["unittype"] = "zombie"
            new_row["health"] = 5
            new_row["speed"] = 2
        rows.append(new_row)
    run_movement_phase(rows, GRID, rng)
    for row in rows:
        row.update(defaults)
    out = EnvironmentTable(SCHEMA)
    out.rows.extend(rows)
    return out


def build_world(n_civilians=60, n_zombies=6) -> EnvironmentTable:
    import random

    placer = random.Random(13)
    env = EnvironmentTable(SCHEMA)
    taken = set()
    key = 0
    for unittype, count, health, speed in (
        ("civilian", n_civilians, 3, 2),
        ("zombie", n_zombies, 5, 2),
    ):
        for _ in range(count):
            while True:
                x, y = placer.randrange(GRID), placer.randrange(GRID)
                if (x, y) not in taken:
                    taken.add((x, y))
                    break
            env.insert_unit(
                key=key, unittype=unittype, posx=x, posy=y,
                health=health, speed=speed,
            )
            key += 1
    return env


def main() -> None:
    registry = FunctionRegistry()
    registry.register_constants({"_PANIC_RANGE": 8, "_SMELL_RANGE": 16})
    registry.register_sql(BUILTINS)

    game = GameDefinition(
        schema=SCHEMA,
        registry=registry,
        scripts={
            "civilian": compile_script(CIVILIAN, registry, SCHEMA),
            "zombie": compile_script(ZOMBIE, registry, SCHEMA),
        },
    )
    engine = game.engine(build_world(), mechanics, mode="indexed", seed=42)

    print("== Zombie outbreak (custom game on the repro engine) ==")
    for _ in range(25):
        engine.tick()
        counts = {"civilian": 0, "zombie": 0}
        for row in engine.env:
            counts[row["unittype"]] += 1
        if engine.tick_count % 5 == 0:
            print(
                f"tick {engine.tick_count:2d}: "
                f"{counts['civilian']:3d} civilians, "
                f"{counts['zombie']:3d} zombies"
            )
        if counts["civilian"] == 0:
            print(f"humanity fell at tick {engine.tick_count}")
            break

    print("\n== EXPLAIN: how the engine runs the zombie script ==")
    print(explain_script(ZOMBIE, registry))


if __name__ == "__main__":
    main()
