"""The discrete simulation engine (Sections 2.2 and 6).

Tick loop, pluggable naive/indexed aggregate evaluators, deferred
area-of-effect combination, post-processing, and grid movement.
"""

from .clock import EngineConfig, SimulationEngine, TickStats
from .decision import DecisionRunner, DecisionStage, GameDefinition
from .effects import AoeRecord, resolve_aoe
from .evaluator import IndexedEvaluator, NaiveEvaluator, empty_aggregate_result
from .movement import Grid, desired_direction, run_movement_phase
from .postprocess import example_41_postprocess
from .rng import TickRandom, splitmix64
from .shardexec import PoolStats, ReplicaWorkerPool

__all__ = [
    "AoeRecord",
    "DecisionRunner",
    "DecisionStage",
    "EngineConfig",
    "GameDefinition",
    "Grid",
    "IndexedEvaluator",
    "NaiveEvaluator",
    "PoolStats",
    "ReplicaWorkerPool",
    "SimulationEngine",
    "TickRandom",
    "TickStats",
    "desired_direction",
    "empty_aggregate_result",
    "example_41_postprocess",
    "resolve_aoe",
    "run_movement_phase",
    "splitmix64",
]
