"""The full battle simulation: the paper's experimental system (Section 6).

Assembles everything: the tagged environment relation, the SGL unit
scripts, the function registry, the pluggable naive/indexed evaluator,
the combined-effect mechanics (health, cooldown, death), the grid
movement phase, and the resurrection rule that keeps the population
constant during benchmarks ("whenever a unit dies, it is 'resurrected'
at a position chosen uniformly at random on the grid").
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass, field
from typing import Mapping

from ..engine.clock import EngineConfig, SimulationEngine, TickStats
from ..engine.decision import GameDefinition
from ..engine.movement import Grid, run_movement_phase
from ..engine.rng import TickRandom
from ..env.schema import battle_schema
from ..env.table import EnvironmentTable
from .scenario import DEFAULT_COMPOSITION, two_army_battle, uniform_battle
from .scripts import build_registry, build_scripts
from .units import GAME_CONSTANTS


def battle_game() -> GameDefinition:
    """The battle's game: its schema, registry and one script per unit
    type."""
    return GameDefinition(
        schema=battle_schema(),
        registry=build_registry(),
        scripts=build_scripts(),
        script_selector="unittype",
    )


#: Save-file / log-metadata format version for the battle's persisted
#: state.  Bump when the persisted dict's shape changes incompatibly.
#: 2: format-1 ``kwargs`` may name a knob or a ``parallelism`` value
#: this build no longer has.
SAVE_FORMAT = 2


@dataclass
class BattleSummary:
    """Aggregate statistics of a simulation run."""

    ticks: int = 0
    deaths: int = 0
    resurrections: int = 0
    total_damage: float = 0.0
    total_healing: float = 0.0
    tick_stats: list[TickStats] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(s.total_time for s in self.tick_stats)


class BattleSimulation:
    """A ready-to-run battle with the paper's three unit types.

    Parameters
    ----------
    n_units:
        Total units across both players.
    density:
        Fraction of grid cells occupied (the paper fixes 1%).
    formation:
        ``"uniform"`` (the paper's setup) or ``"two_army"`` (clustered).
    composition:
        Unit-type mix (default: the paper's).
    seed:
        Seeds the scenario and the engine's random function.
    resurrection:
        Keep the population constant by resurrecting the dead (on for
        benchmarks, off for gameplay-style examples).
    epoch_log:
        Path of the durable epoch log (:mod:`repro.persist`).  The
        battle attaches it itself, after construction, so every record
        carries the battle counters and the log metadata carries the
        construction recipe; a logged battle supports :meth:`recover`.
    **engine:
        Every other keyword is an :class:`~repro.engine.clock
        .EngineConfig` field -- that docstring is the knob reference.
        Trajectories are bit-identical across worker layouts at the same
        ``num_shards``; the battle's summed measures and effects are
        integer-valued, so they are also bit-identical across modes and
        shard counts, where float sums run in a different order.

    The battle's :attr:`game` (also reachable as :attr:`schema`,
    :attr:`registry` and :attr:`scripts`) is what every decision runs:
    a mod replaces ``sim.game.scripts[unittype]`` before the first tick,
    and serial and process runs both play it.
    """

    def __init__(
        self,
        n_units: int,
        *,
        density: float = 0.01,
        formation: str = "uniform",
        composition: Mapping[str, float] | None = None,
        seed: int = 0,
        resurrection: bool = True,
        epoch_log: str | None = None,
        **engine,
    ):
        self.game = battle_game()
        self.schema = self.game.schema
        self.registry = self.game.registry
        self.scripts = self.game.scripts
        make = uniform_battle if formation == "uniform" else two_army_battle
        if formation not in ("uniform", "two_army"):
            raise ValueError(f"unknown formation {formation!r}")
        self.env, self.grid_size = make(
            n_units,
            density=density,
            composition=composition or DEFAULT_COMPOSITION,
            seed=seed,
            schema=self.schema,
        )
        self.resurrection = resurrection
        self.summary = BattleSummary()
        self._next_key = n_units
        config = EngineConfig(seed=seed, **engine)
        # the picklable construction recipe: recorded in save files and
        # epoch-log metadata so load()/recover() rebuild an equivalent
        # simulation before restoring the rows.  Epoch-log knobs stay
        # out (recovery re-attaches the log explicitly), and so does
        # trace_path: a loaded run re-tracing over the original trace
        # file would clobber it
        self._ctor_kwargs = dict(
            n_units=n_units,
            density=density,
            formation=formation,
            composition=dict(composition) if composition else None,
            seed=seed,
            resurrection=resurrection,
            **{
                name: value
                for name, value in engine.items()
                if name != "trace_path" and not name.startswith("epoch_log")
            },
        )

        self.engine = SimulationEngine(
            self.env, self.game, self._mechanics, config
        )
        if epoch_log:
            self.attach_epoch_log(epoch_log)

    # -- public API -----------------------------------------------------------

    @property
    def environment(self) -> EnvironmentTable:
        return self.engine.env

    @property
    def spectator_address(self) -> tuple[str, int] | None:
        """The spectator feed's ``(host, port)`` (``None`` if not serving)."""
        return self.engine.spectator_address

    @property
    def metrics(self):
        """The engine's metrics registry (a no-op null registry unless
        constructed with ``metrics=True``)."""
        return self.engine.metrics

    def serve_metrics(self, **kwargs) -> tuple[str, int]:
        """Serve the metrics registry as a Prometheus text endpoint;
        returns the bound ``(host, port)`` (requires ``metrics=True``)."""
        return self.engine.serve_metrics(**kwargs)

    def spawn_spectator(self, **settings):
        """Start a :class:`~repro.serve.spectator.SpectatorReplica`
        subscribed to this battle's feed (requires ``spectators=True``).
        *settings* are the keywords :meth:`SpectatorReplica.spawn
        <repro.serve.spectator.SpectatorReplica.spawn>` declares
        (``history_retain``, ``history_checkpoint_every``, ``host``);
        any other is a ``TypeError``."""
        from ..serve.spectator import SpectatorReplica

        address = self.spectator_address
        if address is None:
            raise RuntimeError(
                "battle is not serving spectators; pass spectators=True"
            )
        return SpectatorReplica.spawn(address, self.game, **settings)

    def close(self) -> None:
        """Shut down the spectator feed and the engine's worker pool.

        Idempotent: calling it again (or mixing explicit calls with the
        context-manager exit) is a no-op.  The engine closes its
        spectator publisher *before* tearing down workers, so subscribed
        replicas see a clean EOF rather than a reset mid-teardown.
        """
        self.engine.close()

    def __enter__(self) -> "BattleSimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def tick(self) -> TickStats:
        stats = self.engine.tick()
        self.summary.ticks += 1
        self.summary.tick_stats.append(stats)
        return stats

    def run(self, ticks: int) -> BattleSummary:
        for _ in range(ticks):
            self.tick()
        return self.summary

    def state_signature(self) -> list[tuple]:
        """Order-independent snapshot for trajectory-equivalence tests."""
        names = self.schema.names
        return sorted(
            tuple(row[n] for n in names) for row in self.engine.env.rows
        )

    # -- persistence: save/load, the epoch log, crash recovery -----------------

    def attach_epoch_log(
        self,
        path: str,
        *,
        resume: bool = False,
    ):
        """Start (or, with *resume*, continue) the durable epoch log.

        Wires the engine's log hook to this battle's counters: every
        epoch record carries the :class:`BattleSummary` numbers, and the
        log metadata carries the construction kwargs, so
        :meth:`recover` can rebuild the battle from the log alone.
        """
        return self.engine.attach_epoch_log(
            path,
            resume=resume,
            state_fn=self._persist_state,
            meta={
                "game": "repro.game.battle",
                "format": SAVE_FORMAT,
                "kwargs": self._ctor_kwargs,
                "grid_size": self.grid_size,
            },
        )

    def _persist_state(self) -> dict:
        """The battle-level state logged/saved alongside the rows.

        Per-tick wall-clock stats are diagnostics, not state, and are
        deliberately not persisted; a resumed run's ``tick_stats``
        cover only the ticks it ran itself.

        The tick count comes from the engine, not ``summary.ticks``:
        the epoch log calls this mid-tick, after the engine advanced
        its count but before :meth:`tick` folds the stats into the
        summary -- the engine's count is the post-tick truth either
        way (the two agree between ticks).
        """
        return {
            "ticks": self.engine.tick_count,
            "deaths": self.summary.deaths,
            "resurrections": self.summary.resurrections,
            "total_damage": self.summary.total_damage,
            "total_healing": self.summary.total_healing,
            "next_key": self._next_key,
        }

    def _restore(self, epoch: int, rows: list, state: dict) -> None:
        self.engine.restore_state(epoch, rows)
        self.summary = BattleSummary(
            ticks=state["ticks"],
            deaths=state["deaths"],
            resurrections=state["resurrections"],
            total_damage=state["total_damage"],
            total_healing=state["total_healing"],
        )
        self._next_key = state["next_key"]

    def save(self, path: str) -> None:
        """Write a one-record save file of the battle mid-run.

        The file carries the construction kwargs, the current epoch and
        rows, and the summary counters; :meth:`load` restores all of it
        and the resumed trajectory is bit-identical to never having
        stopped (state + tick number fully determine the future -- the
        rng is counter-mode).  Works with or without an epoch log
        attached.
        """
        from ..persist.log import write_state_file

        epoch = self.engine.tick_count + 1
        write_state_file(
            path,
            epoch,
            {
                "format": SAVE_FORMAT,
                "game": "repro.game.battle",
                "kwargs": self._ctor_kwargs,
                "grid_size": self.grid_size,
                "epoch": epoch,
                "rows": self.engine.env.rows,
                "state": self._persist_state(),
            },
        )

    @classmethod
    def load(cls, path: str, **overrides) -> "BattleSimulation":
        """Rebuild a battle from a :meth:`save` file and resume it.

        *overrides* replace construction kwargs -- performance knobs
        (``parallelism``, ``num_shards``, ``spectators``, ...) may
        change freely across a save/load boundary without affecting the
        trajectory, exactly as they may between runs.  Pass
        ``epoch_log=`` (plus the checkpoint/fsync knobs) to start
        logging the resumed run.
        """
        from ..persist.log import read_state_file

        _epoch, payload = read_state_file(path)
        cls._check_persisted(path, payload)
        return cls._rebuild(
            payload["kwargs"],
            payload["epoch"],
            payload["rows"],
            payload["state"],
            overrides,
        )

    @classmethod
    def recover(
        cls, log_path: str, *, resume_log: bool = True, **overrides
    ) -> "BattleSimulation":
        """Recover a crashed battle from its durable epoch log.

        The crash drill's path: truncates any torn tail record (a
        coordinator killed mid-write; logged loudly, never
        half-applied), replays the log to the last epoch whose battle
        counters are durable, rebuilds the simulation from the recorded
        construction kwargs, and -- with *resume_log* (default) --
        re-attaches the same log in append mode, starting with a fresh
        checkpoint.  Running the recovered battle forward produces a
        trajectory bit-identical to one that never crashed.
        """
        from ..persist.log import (
            EpochLogError,
            EpochLogReader,
            truncate_torn_tail,
        )

        truncate_torn_tail(log_path)
        with EpochLogReader(log_path) as reader:
            meta = reader.meta()
            game_meta = (meta or {}).get("game_meta") or {}
            cls._check_persisted(log_path, game_meta)
            # every epoch record is followed by its REC_STATE, so the
            # last durable state names the last fully-recoverable epoch
            last_state = reader.last_state()
            if last_state is None:
                raise EpochLogError(
                    f"{log_path!r} holds no recoverable state"
                )
            epoch, state = last_state
            result = reader.replay(upto=epoch, key_attr="key")
            if result.epoch != epoch:  # pragma: no cover - defensive
                raise EpochLogError(
                    f"{log_path!r}: state record at epoch {epoch} but "
                    f"replay reaches {result.epoch}"
                )
        sim = cls._rebuild(
            game_meta["kwargs"], epoch, result.rows, state, overrides
        )
        if resume_log:
            sim.attach_epoch_log(log_path, resume=True)
        return sim

    @classmethod
    def _check_persisted(cls, path: str, payload: Mapping) -> None:
        """Refuse a save file or log this build cannot rebuild from."""
        from ..persist.log import EpochLogError

        if payload.get("game") != "repro.game.battle":
            raise EpochLogError(
                f"{path!r} was written by {payload.get('game')!r}, "
                "not the battle simulation"
            )
        if payload.get("format") != SAVE_FORMAT:
            raise EpochLogError(
                f"{path!r} uses save format {payload.get('format')!r} "
                f"(this build reads {SAVE_FORMAT})"
            )
        known = inspect.signature(cls.__init__).parameters.keys() | {
            f.name for f in dataclasses.fields(EngineConfig)
        }
        unknown = sorted(payload["kwargs"].keys() - known)
        if unknown:
            raise EpochLogError(
                f"{path!r} names knob(s) this build does not have: "
                + ", ".join(unknown)
            )

    @classmethod
    def _rebuild(
        cls,
        kwargs: dict,
        epoch: int,
        rows: list,
        state: dict,
        overrides: dict,
    ) -> "BattleSimulation":
        merged = dict(kwargs)
        overrides = dict(overrides)
        # the log attaches after the rows are restored, never during
        # construction -- the scenario's initial rows must not be logged
        # as if they were the resumed state
        epoch_log = overrides.pop("epoch_log", None)
        merged.update(overrides)
        sim = cls(**merged)
        try:
            sim._restore(epoch, rows, state)
            if epoch_log:
                sim.attach_epoch_log(epoch_log)
        except BaseException:
            sim.close()
            raise
        return sim

    # -- game mechanics: the Example 4.1 post-processing + movement ------------

    def _mechanics(
        self, combined: EnvironmentTable, rng: TickRandom, tick: int
    ) -> EnvironmentTable:
        schema = combined.schema
        defaults = schema.effect_defaults()
        time_reload = GAME_CONSTANTS["_TIME_RELOAD"]
        neg_inf = float("-inf")

        # the combined rows are ⊕'s copies: updated in place (MechanicsFn)
        alive: list[dict[str, object]] = []
        dead: list[dict[str, object]] = []
        for row in combined:
            inaura = row["inaura"]
            if inaura == neg_inf:
                inaura = 0
            healing = min(
                row["health"] - row["damage"] + inaura, row["max_health"]
            )
            self.summary.total_damage += row["damage"]
            if inaura:
                self.summary.total_healing += inaura
            weaponused = row["weaponused"]
            if weaponused == neg_inf:
                weaponused = 0
            row["cooldown"] = max(
                row["cooldown"] - 1 + weaponused * time_reload, 0
            )
            row["health"] = healing
            if healing <= 0:
                dead.append(row)
            else:
                alive.append(row)

        # movement phase: random order, collision detection, simple
        # pathfinding.  Dead units do not move.  Runs before the effect
        # attributes reset because it consumes the movement vectors.
        run_movement_phase(alive, self.grid_size, rng)
        for row in alive:
            row.update(defaults)
        for row in dead:
            row.update(defaults)

        self.summary.deaths += len(dead)
        if self.resurrection and dead:
            grid = Grid(self.grid_size)
            for row in alive:
                grid.place(row["key"], int(row["posx"]), int(row["posy"]))
            for row in dead:
                x = rng(row, 770_001) % self.grid_size
                y = rng(row, 770_002) % self.grid_size
                salt = [0]

                def rand(n: int, _row=row, _salt=salt) -> int:
                    _salt[0] += 1
                    return rng(_row, 770_100 + _salt[0]) % n

                cell = grid.free_cell_near(x, y, rand)
                if cell is None:
                    continue  # grid completely full; drop the unit
                row["posx"], row["posy"] = cell
                row["health"] = row["max_health"]
                row["cooldown"] = 0
                grid.place(row["key"], *cell)
                alive.append(row)
                self.summary.resurrections += 1

        out = EnvironmentTable(schema)
        out.rows.extend(alive)
        return out
