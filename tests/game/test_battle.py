"""Full battle simulation: the paper's headline equivalence and invariants.

The critical guarantee of Section 6: the naive and the indexed engines
are the *same game* -- identical trajectories, different wall-clock.
"""

import pytest

from repro.game.battle import BattleSimulation


def signatures_match(a: BattleSimulation, b: BattleSimulation, ticks: int):
    for t in range(ticks):
        a.tick()
        b.tick()
        if a.state_signature() != b.state_signature():
            return t + 1
    return None


class TestNaiveIndexedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trajectories_identical(self, seed):
        naive = BattleSimulation(40, mode="naive", seed=seed)
        indexed = BattleSimulation(40, mode="indexed", seed=seed)
        diverged = signatures_match(naive, indexed, ticks=6)
        assert diverged is None, f"diverged at tick {diverged}"

    def test_two_army_formation_equivalence(self):
        naive = BattleSimulation(40, mode="naive", seed=5,
                                 formation="two_army")
        indexed = BattleSimulation(40, mode="indexed", seed=5,
                                   formation="two_army")
        assert signatures_match(naive, indexed, ticks=6) is None


class TestMaintenanceModeEquivalence:
    """Index upkeep must be invisible in the trajectory: the naive
    engine and the indexed one, which rebuilds its indexes every tick
    (the ``auto`` regime, the only one), are the same game.
    """

    SCENARIOS = [
        # (seed, formation, resurrection)
        (0, "uniform", True),
        (1, "two_army", True),
        (2, "uniform", False),
        (3, "two_army", False),
    ]

    @pytest.mark.parametrize("maintenance", ["auto"])
    @pytest.mark.parametrize("seed,formation,resurrection", SCENARIOS)
    def test_matches_naive_trajectory(
        self, maintenance, seed, formation, resurrection
    ):
        naive = BattleSimulation(
            40, mode="naive", seed=seed, formation=formation,
            resurrection=resurrection,
        )
        indexed = BattleSimulation(
            40, mode="indexed", seed=seed, formation=formation,
            resurrection=resurrection,
        )
        diverged = signatures_match(naive, indexed, ticks=6)
        assert diverged is None, (
            f"{maintenance} diverged from naive at tick {diverged}"
        )


class TestDeterminism:
    def test_same_seed_same_run(self):
        a = BattleSimulation(30, mode="indexed", seed=11)
        b = BattleSimulation(30, mode="indexed", seed=11)
        a.run(5)
        b.run(5)
        assert a.state_signature() == b.state_signature()

    def test_different_seed_different_run(self):
        a = BattleSimulation(30, mode="indexed", seed=11)
        b = BattleSimulation(30, mode="indexed", seed=12)
        a.run(5)
        b.run(5)
        assert a.state_signature() != b.state_signature()


class TestInvariants:
    def test_resurrection_keeps_population(self):
        sim = BattleSimulation(50, mode="indexed", seed=2, density=0.05)
        sim.run(10)
        assert len(sim.environment) == 50
        assert sim.summary.deaths == sim.summary.resurrections

    def test_without_resurrection_population_shrinks_or_holds(self):
        sim = BattleSimulation(50, mode="indexed", seed=2, density=0.05,
                               resurrection=False)
        sim.run(10)
        assert len(sim.environment) <= 50

    def test_health_bounded(self):
        sim = BattleSimulation(40, mode="indexed", seed=4, density=0.05)
        sim.run(8)
        for row in sim.environment:
            assert 0 < row["health"] <= row["max_health"]

    def test_positions_on_grid_and_distinct(self):
        sim = BattleSimulation(40, mode="indexed", seed=4, density=0.05)
        sim.run(8)
        cells = set()
        for row in sim.environment:
            assert 0 <= row["posx"] < sim.grid_size
            assert 0 <= row["posy"] < sim.grid_size
            cells.add((row["posx"], row["posy"]))
        assert len(cells) == len(sim.environment)

    def test_effect_attributes_reset_between_ticks(self):
        sim = BattleSimulation(30, mode="indexed", seed=1)
        sim.run(3)
        for row in sim.environment:
            assert row["damage"] == 0
            assert row["inaura"] == 0
            assert row["movevect_x"] == 0

    def test_combat_happens(self):
        # a dense battle must actually produce damage
        sim = BattleSimulation(60, mode="indexed", seed=6, density=0.08)
        sim.run(10)
        assert sim.summary.total_damage > 0

    def test_healing_happens(self):
        sim = BattleSimulation(60, mode="indexed", seed=6, density=0.08)
        sim.run(10)
        assert sim.summary.total_healing > 0

    def test_cooldowns_respected(self):
        sim = BattleSimulation(40, mode="indexed", seed=9, density=0.08)
        sim.run(6)
        for row in sim.environment:
            assert row["cooldown"] >= 0

    def test_tick_stats_recorded(self):
        sim = BattleSimulation(30, mode="indexed", seed=1)
        summary = sim.run(4)
        assert summary.ticks == 4
        assert len(summary.tick_stats) == 4
        assert all(s.total_time > 0 for s in summary.tick_stats)
        assert summary.total_time > 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            BattleSimulation(10, mode="turbo")

    def test_invalid_formation_rejected(self):
        with pytest.raises(ValueError):
            BattleSimulation(10, formation="circle")


class TestEvaluatorUsage:
    def test_indexed_engine_uses_every_index_family(self):
        sim = BattleSimulation(80, mode="indexed", seed=3, density=0.05)
        sim.run(4)
        stats = sim.engine.agg_eval.stats
        assert stats.get("probe_divisible", 0) > 0
        assert stats.get("build_sweep", 0) > 0
        assert stats.get("probe_kdtree", 0) > 0

    def test_no_sweep_misses_for_battle_scripts(self):
        sim = BattleSimulation(80, mode="indexed", seed=3, density=0.05)
        sim.run(4)
        assert sim.engine.agg_eval.stats.get("sweep_miss", 0) == 0

    def test_aoe_deferral_records(self):
        sim = BattleSimulation(80, mode="indexed", seed=3, density=0.08)
        stats = [sim.tick() for _ in range(6)]
        assert any(s.aoe_records > 0 for s in stats)
