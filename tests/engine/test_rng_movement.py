"""Deterministic randomness (Section 4.1) and the grid movement phase."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.engine.movement import Grid, desired_direction, run_movement_phase
from repro.engine.rng import TickRandom, splitmix64, stable_hash


class TestTickRandom:
    def test_stable_within_tick(self):
        rng = TickRandom(seed=42, tick=3)
        row = {"key": 7}
        assert rng(row, 1) == rng(row, 1)

    def test_varies_between_ticks(self):
        row = {"key": 7}
        a = TickRandom(seed=42, tick=1)(row, 1)
        b = TickRandom(seed=42, tick=2)(row, 1)
        assert a != b

    def test_varies_per_unit(self):
        rng = TickRandom(seed=42, tick=1)
        assert rng({"key": 1}, 1) != rng({"key": 2}, 1)

    def test_varies_per_index(self):
        rng = TickRandom(seed=42, tick=1)
        row = {"key": 1}
        assert rng(row, 1) != rng(row, 2)

    def test_seed_changes_everything(self):
        row = {"key": 1}
        assert TickRandom(1, tick=1)(row, 1) != TickRandom(2, tick=1)(row, 1)

    def test_advance(self):
        rng = TickRandom(seed=5)
        rng.advance()
        assert rng.tick == 1
        rng.advance(10)
        assert rng.tick == 10

    def test_uniform_in_range(self):
        rng = TickRandom(seed=5, tick=1)
        for i in range(50):
            assert 0 <= rng.uniform({"key": i}, 1, 7) < 7

    def test_splitmix_is_64bit(self):
        assert 0 <= splitmix64(123456789) < (1 << 64)

    def test_nonnegative(self):
        rng = TickRandom(seed=9, tick=4)
        assert all(rng({"key": k}, 0) >= 0 for k in range(20))


class TestStableKeyHash:
    """Regression: unit keys must hash identically in every process.

    The stream used to go through Python's builtin ``hash()``, which is
    salted per process for str/bytes keys -- string-keyed simulations
    were not reproducible across processes, contradicting the module's
    determinism contract.  These values are pinned forever; changing
    them silently breaks replayability of recorded simulations.
    """

    def test_pinned_values(self):
        rng = TickRandom(seed=42, tick=3)
        assert rng({"key": 7}, 1) == 11609427158010682529
        assert rng({"key": "knight-07"}, 1) == 15738241415071403343
        assert rng({"key": ("a", 3)}, 2) == 9767974576443231948

    def test_pinned_stable_hash(self):
        assert stable_hash("epic") == 2273434926276851718
        assert stable_hash(b"epic") == 7454095844929570242
        assert stable_hash(7) == 7
        assert stable_hash(("a", 3)) == 6178579289402711412

    def test_int_and_integral_float_keys_agree(self):
        assert stable_hash(7.0) == stable_hash(7)
        assert stable_hash(2.5) != stable_hash(2)
        # bool is an int subtype; agree with dict-key equality
        assert stable_hash(True) == stable_hash(1)

    def test_wide_int_keys_do_not_collide_mod_2_64(self):
        # 128-bit keys (UUID ints) must not alias keys 2**64 apart
        k = 0x1234_5678_9ABC_DEF0
        assert stable_hash(k + (1 << 64)) != stable_hash(k)
        assert stable_hash(-1) != stable_hash((1 << 64) - 1)
        assert stable_hash(-5) == stable_hash(-5)
        assert stable_hash(float(1 << 70)) == stable_hash(1 << 70)

    def test_nonfinite_float_keys_hash(self):
        # inf/nan must hash deterministically via their bit patterns,
        # not crash in int() conversion
        inf = float("inf")
        assert stable_hash(inf) == stable_hash(inf)
        assert stable_hash(-inf) != stable_hash(inf)
        assert isinstance(stable_hash(float("nan")), int)

    def test_key_hash_memo_consistent(self):
        rng = TickRandom(seed=3, tick=2)
        first = rng({"key": "memoized"}, 1)
        assert rng({"key": "memoized"}, 1) == first
        assert rng._key_hashes["memoized"] == stable_hash("memoized")

    def test_string_keys_differ(self):
        rng = TickRandom(seed=1, tick=1)
        assert rng({"key": "a"}, 0) != rng({"key": "b"}, 0)

    def test_unhashable_key_type_rejected(self):
        with pytest.raises(TypeError):
            stable_hash(["list", "key"])

    def test_string_keys_reproducible_across_hash_seeds(self):
        """Same TickRandom outputs under different PYTHONHASHSEED."""
        program = (
            "from repro.engine.rng import TickRandom\n"
            "rng = TickRandom(seed=99, tick=5)\n"
            "print([rng({'key': f'unit-{k}'}, i)"
            " for k in range(4) for i in range(3)])\n"
        )
        outputs = []
        for hash_seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, env=env,
                cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


_M64 = (1 << 64) - 1
STREAM_KEYS = [
    0, 7, -1, -(1 << 70), 1 << 64, (1 << 64) - 1, 3 ** 50, True,
    "", "unit-7", "ünïcode", b"raw", 2.5, -0.5, float("inf"), 4.0,
    (1, "a"), ((2, b"x"), 0.25), (),
]
DRAWS = [0, 1, 7_301_333, -1, -(1 << 65), 1 << 64, 770_101]


def three_mixes(seed, tick, key, i):
    """A draw as three SplitMix64 mixes: tick, unit key, draw index."""
    state = splitmix64((seed & _M64) ^ (tick & _M64))
    state = splitmix64(state ^ stable_hash(key))
    return splitmix64(state ^ (i & _M64))


class TestTickStreams:
    """Each draw is one mix of the unit's cached per-tick stream, and
    equals the three-mix formula whatever the key type or draw index."""

    def check(self, rng, seed, tick):
        for key in STREAM_KEYS:
            for i in DRAWS:
                assert rng({"key": key}, i) == three_mixes(seed, tick, key, i)

    def test_draws_equal_the_three_mix_formula(self):
        self.check(TickRandom(seed=-3, tick=5), -3, 5)
        self.check(TickRandom(seed=1 << 66, tick=-2), 1 << 66, -2)

    def test_advance_and_assignment_start_a_new_stream(self):
        rng = TickRandom(seed=9, tick=1)
        self.check(rng, 9, 1)
        rng.advance()
        self.check(rng, 9, 2)
        rng.advance(40)
        self.check(rng, 9, 40)
        rng.tick = 3
        self.check(rng, 9, 3)
        rng.seed = 12
        self.check(rng, 12, 3)

    def test_a_pickled_copy_draws_the_same(self):
        rng = TickRandom(seed=21, tick=6, key_attr="id")
        rng({"id": "warm"}, 1)  # a cached stream travels too
        copy = pickle.loads(pickle.dumps(rng))
        assert (copy.seed, copy.tick, copy.key_attr) == (21, 6, "id")
        for key in STREAM_KEYS:
            assert copy({"id": key}, 5) == rng({"id": key}, 5)
        copy.advance()
        assert copy({"id": 1}, 5) == three_mixes(21, 7, 1, 5)

    def test_the_stream_cache_holds_one_ticks_keys(self):
        rng = TickRandom(seed=2, tick=1)
        for tick in range(1, 6):
            rng.tick = tick
            keys = range(tick * 10, tick * 10 + 25)
            for key in keys:
                rng({"key": key}, 0)
                rng({"key": key}, 1)
            assert set(rng._streams) == set(keys)
        rng.advance()
        assert rng._streams == {}


class TestDesiredDirection:
    def test_cardinals(self):
        assert desired_direction(1, 0) == 0    # east
        assert desired_direction(0, 1) == 2    # north
        assert desired_direction(-1, 0) == 4   # west
        assert desired_direction(0, -1) == 6   # south

    def test_diagonals(self):
        assert desired_direction(1, 1) == 1
        assert desired_direction(-1, -1) == 5


class TestGrid:
    def test_place_and_occupy(self):
        grid = Grid(10)
        grid.place("a", 1, 1)
        assert grid.occupied(1, 1) and not grid.occupied(2, 2)

    def test_remove(self):
        grid = Grid(10)
        grid.place("a", 1, 1)
        grid.remove(1, 1)
        assert not grid.occupied(1, 1)

    def test_bounds(self):
        grid = Grid(5)
        assert grid.in_bounds(0, 0) and grid.in_bounds(4, 4)
        assert not grid.in_bounds(5, 0) and not grid.in_bounds(-1, 0)

    def test_free_cell_near_prefers_exact(self):
        grid = Grid(10)
        assert grid.free_cell_near(3, 3, lambda n: 0) == (3, 3)

    def test_free_cell_near_spirals(self):
        grid = Grid(10)
        grid.place("a", 3, 3)
        cell = grid.free_cell_near(3, 3, lambda n: 0)
        assert cell != (3, 3)
        assert abs(cell[0] - 3) <= 1 and abs(cell[1] - 3) <= 1

    def test_free_cell_near_full_grid(self):
        grid = Grid(2)
        for x in range(2):
            for y in range(2):
                grid.place((x, y), x, y)
        assert grid.free_cell_near(0, 0, lambda n: 0) is None


def make_mover(key, x, y, mvx, mvy, speed=1):
    return {
        "key": key, "posx": x, "posy": y,
        "movevect_x": mvx, "movevect_y": mvy, "speed": speed,
    }


class TestMovementPhase:
    def rng(self):
        return TickRandom(seed=0, tick=1)

    def test_unit_moves_toward_vector(self):
        rows = [make_mover(0, 5, 5, 3, 0)]
        run_movement_phase(rows, 20, self.rng())
        assert (rows[0]["posx"], rows[0]["posy"]) == (6, 5)

    def test_stationary_unit_stays(self):
        rows = [make_mover(0, 5, 5, 0, 0)]
        run_movement_phase(rows, 20, self.rng())
        assert (rows[0]["posx"], rows[0]["posy"]) == (5, 5)

    def test_speed_multiplies_steps(self):
        rows = [make_mover(0, 0, 0, 10, 0, speed=3)]
        run_movement_phase(rows, 20, self.rng())
        assert rows[0]["posx"] == 3

    def test_collision_blocks_or_sidesteps(self):
        rows = [
            make_mover(0, 5, 5, 1, 0),
            make_mover(1, 6, 5, 0, 0),  # blocking the direct path
        ]
        run_movement_phase(rows, 20, self.rng())
        mover = rows[0]
        # either it side-stepped diagonally or stayed; never on the blocker
        assert (mover["posx"], mover["posy"]) != (6, 5) or rows[1]["posx"] != 6
        occupied = {(r["posx"], r["posy"]) for r in rows}
        assert len(occupied) == 2

    def test_no_two_units_share_cell(self):
        rows = [make_mover(k, k, 0, 1, 0) for k in range(6)]
        run_movement_phase(rows, 30, self.rng())
        cells = {(r["posx"], r["posy"]) for r in rows}
        assert len(cells) == 6

    def test_grid_boundary_respected(self):
        rows = [make_mover(0, 19, 5, 5, 0)]
        run_movement_phase(rows, 20, self.rng())
        assert rows[0]["posx"] <= 19

    def test_deterministic_given_rng(self):
        rows_a = [make_mover(k, k * 2, k, 1, 1) for k in range(5)]
        rows_b = [make_mover(k, k * 2, k, 1, 1) for k in range(5)]
        run_movement_phase(rows_a, 30, TickRandom(7, tick=2))
        run_movement_phase(rows_b, 30, TickRandom(7, tick=2))
        assert rows_a == rows_b
