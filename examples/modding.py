"""Modding: swap a unit's AI script without touching the engine.

Section 2 of the paper argues data-driven AI lets *players* mod unit
behaviour (the Warcraft III AMAI project).  This example plays the same
battle twice -- once with the stock archer script, once with player 0's
archers modded into "berserkers" that never retreat and always charge
the weakest enemy -- and compares outcomes.  The mod is pure data: a
different SGL string, compiled against the same registry, put in the
battle's game before the first tick.  Because the game is what every
decision worker receives, the modded battle plays the same whether it
runs serially or over worker processes.

    python examples/modding.py
"""

from repro import BattleSimulation, compile_script
from repro.game.scripts import ARCHER_SCRIPT

#: One archer script for both players: player 0's archers berserk,
#: player 1's run the stock archer AI (renamed ``Stock``).
MODDED_ARCHER = """
main(u) {
  if (u.player = 0) then
    perform Berserk(u);
  else
    perform Stock(u);
}

Berserk(u) {
  (let c = CountEnemiesInRange(u, u.sight)) {
    if (c > 0) then
      perform Rush(u);
  }
}

Rush(u) {
  (let n = CountEnemiesInRange(u, u.range)) {
    if (n > 0 and u.cooldown = 0) then
      (let target = WeakestEnemyInRange(u, u.range)) {
        perform FireAt(u, target.key);
        perform UseWeapon(u);
      };
    if (n = 0) then
      (let t = NearestEnemy(u)) {
        perform MoveInDirection(u, t.posx - u.posx, t.posy - u.posy);
      }
  }
}
""" + ARCHER_SCRIPT.replace("main(u)", "Stock(u)", 1)


def play(modded: bool, ticks: int = 15, **engine):
    with BattleSimulation(
        200, mode="indexed", seed=21, density=0.06, resurrection=False,
        **engine,
    ) as sim:
        if modded:
            game = sim.game
            game.scripts["archer"] = compile_script(
                MODDED_ARCHER, game.registry, game.schema
            )
        sim.run(ticks)
        survivors = {0: 0, 1: 0}
        for row in sim.environment:
            survivors[row["player"]] += 1
        return survivors, sim.summary


def main() -> None:
    print("== Stock archers on both sides ==")
    stock_survivors, stock_summary = play(modded=False)
    print(f"survivors: player0={stock_survivors[0]} "
          f"player1={stock_survivors[1]} "
          f"(damage dealt: {stock_summary.total_damage:.0f})")

    print("\n== Player 0 mods its archers into berserkers ==")
    mod_survivors, mod_summary = play(modded=True)
    print(f"survivors: player0={mod_survivors[0]} "
          f"player1={mod_survivors[1]} "
          f"(damage dealt: {mod_summary.total_damage:.0f})")

    print("\n== The same mod, decided by two worker processes ==")
    _, proc_summary = play(
        modded=True, num_shards=2, parallelism="processes"
    )
    print(f"damage dealt: {proc_summary.total_damage:.0f} "
          f"(serial: {mod_summary.total_damage:.0f})")

    delta = mod_summary.total_damage - stock_summary.total_damage
    print(
        f"\nThe mod changed total battle damage by {delta:+.0f} without a\n"
        "single engine change -- and the optimizer indexed the modded\n"
        "script's aggregates exactly like the stock ones."
    )


if __name__ == "__main__":
    main()
