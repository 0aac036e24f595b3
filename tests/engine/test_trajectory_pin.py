"""Pinned trajectories: the battle's states, tick by tick, as recorded
on the last commit that walked SGL ASTs at tick time (PR 11).

A 300-unit battle (seed 7) is hashed after each of 12 ticks.  Every
engine configuration -- indexed or naive evaluation, flat serial,
2 spatial shards on process workers -- produced
the same twelve digests there, and must keep producing them: compiling
scripts and probe terms is an optimisation, never a semantic change.
"""

import hashlib

import pytest

from repro.game.battle import BattleSimulation

#: sha256(repr(state_signature()))[:16] after ticks 1..12, parent commit.
PINNED = [
    "b81aa592bd106e2c", "0a0b58992fa7fcac", "9179e9e1d244aede",
    "b5d4d028ed166e31", "39843ab80fe0304d", "f626212842bc63a8",
    "759b5dc625b44967", "47fc6174835a5f36", "36a613a0c1b21b64",
    "7eaf07787810457e", "ac19556ebe3e5f1f", "2076db0703c8ba7d",
]  # fmt: skip

SHARDED = dict(num_shards=2, shard_by="spatial", parallelism="processes")

CONFIGS = {
    "indexed-flat": (12, dict(mode="indexed")),
    # the naive evaluator scans all of E per aggregate call (~2.5 s per
    # tick here): the first ticks pin it, the indexed runs pin the rest
    "naive-flat": (3, dict(mode="naive")),
    "indexed-processes": (12, dict(mode="indexed", **SHARDED)),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trajectory_matches_the_pinned_digests(name):
    ticks, kwargs = CONFIGS[name]
    digests = []
    with BattleSimulation(300, seed=7, **kwargs) as sim:
        for _ in range(ticks):
            sim.tick()
            state = repr(sim.state_signature()).encode()
            digests.append(hashlib.sha256(state).hexdigest()[:16])
    assert digests == PINNED[:ticks]
