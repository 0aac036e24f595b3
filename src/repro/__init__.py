"""repro -- reproduction of "Scaling Games to Epic Proportions" (SIGMOD'07).

The package implements the paper's full stack:

* :mod:`repro.env`     -- the tagged environment relation and ``⊕``;
* :mod:`repro.sgl`     -- the SGL scripting language (parser, restricted
  SQL built-ins, reference semantics);
* :mod:`repro.algebra` -- shape classification: which index each
  built-in aggregate can probe, how each action finds its targets;
* :mod:`repro.indexes` -- divisible-aggregate range trees with fractional
  cascading (Figure 8), sweep-line min/max (Figure 9), kD-trees, and
  categorical hash layers;
* :mod:`repro.engine`  -- the discrete simulation engine: the SGL
  compiler, the only script validator, which lowers scripts to
  set-at-a-time emitted Python source (what :func:`explain_script`
  prints, call site by call site, with the source), and the two
  pluggable aggregate evaluators of Section 6;
* :mod:`repro.game`    -- the knights/archers/healers battle simulation
  with d20 mechanics (Section 3.2).

Beyond the paper, the indexed evaluator maintains its indexes from
the tick's row delta when few rows changed, and rebuilds them per tick
as the paper does otherwise -- one rule, not a knob, which a battle's
churn sends to the rebuild side.  The engine also runs **sharded**:
``num_shards=``/``shard_by=`` partition the units of ``E`` (by spatial
strip or hashed attribute) into decision batches, and
``parallelism="processes"`` runs each shard's decisions in a worker
process holding a full replica of ``E``, merging the shards' effect
tables under ⊕ (associative/commutative, Eq. 3); indexes always span
all of ``E``.  Trajectories are bit-identical whether indexes are
patched or rebuilt, across shard counts and parallelism modes, for
games whose aggregate measures sum exactly in floating point
(integer-valued measures, as in the battle simulation).
``benchmarks/bench_incremental.py`` maps where patching beats
rebuilding; the perf ledger's ``battle_sharded`` workload (``python -m
benchmarks.ledger``) times the sharded process run against the flat
one.

Heavy read traffic is served off-process: ``spectators=True`` opens the
:mod:`repro.serve` read-replica feed, and
:class:`~repro.serve.spectator.SpectatorReplica` processes (see
``BattleSimulation.spawn_spectator``) answer read-only SGL/aggregate/
k-NN queries over loopback sockets, pinned to a consistent tick epoch
and bit-identical to querying the engine directly
(``benchmarks/bench_spectators.py`` asserts it live).

Everything above is observable: ``metrics=True`` attaches the
:mod:`repro.obs` metrics registry (Prometheus text endpoint via
``engine.serve_metrics()``), ``trace_path=`` records an
epoch-correlated Chrome trace of every tick stage, worker round trip,
spectator publish, and epoch-log write, and ``slow_tick_factor=`` arms
the slow-tick watchdog -- all read-only diagnostics that leave
trajectories bit-identical (``benchmarks/bench_obs.py`` asserts both
that and the overhead bound; see ``docs/observability.md``).

Quickstart::

    from repro import run_battle
    summary = run_battle(500, ticks=20, mode="indexed")
    print(summary.total_time)
"""

from .api import (
    ExplainResult,
    GameDefinition,
    compile_script,
    explain_script,
    run_battle,
)
from .engine.clock import EngineConfig, SimulationEngine
from .env.schema import Attribute, AttributeType, Schema, battle_schema
from .env.sharding import make_sharder
from .env.table import EnvironmentTable
from .game.battle import BattleSimulation, BattleSummary
from .obs import MetricsRegistry, SlowTickWatchdog, TraceRecorder
from .serve import (
    AuthoritativeQueryService,
    ReplicaPublisher,
    SpectatorClient,
    SpectatorReplica,
    unit_ref,
)
from .sgl.builtins import FunctionRegistry
from .sgl.parser import parse_script

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "AttributeType",
    "AuthoritativeQueryService",
    "BattleSimulation",
    "BattleSummary",
    "EngineConfig",
    "EnvironmentTable",
    "ExplainResult",
    "FunctionRegistry",
    "GameDefinition",
    "MetricsRegistry",
    "ReplicaPublisher",
    "Schema",
    "SimulationEngine",
    "SlowTickWatchdog",
    "SpectatorClient",
    "SpectatorReplica",
    "TraceRecorder",
    "battle_schema",
    "compile_script",
    "explain_script",
    "make_sharder",
    "parse_script",
    "run_battle",
    "unit_ref",
    "__version__",
]
