"""Shared fixtures: schemas, registries, and deterministic battle envs."""

from __future__ import annotations

import random

import pytest

from repro.algebra.shapes import classify_action
from repro.engine.effects import resolve_aoe
from repro.engine.rng import TickRandom
from repro.env.combine import combine_all
from repro.env.schema import battle_schema
from repro.env.table import EnvironmentTable
from repro.game.scripts import build_registry
from repro.game.units import unit_row


@pytest.fixture(scope="session")
def schema():
    return battle_schema()


@pytest.fixture(scope="session")
def registry():
    return build_registry()


def make_env(schema, n=24, grid=40, seed=0, types=("knight", "archer", "healer")):
    """A deterministic battle environment with distinct positions."""
    rng = random.Random(seed)
    env = EnvironmentTable(schema)
    taken = set()
    for key in range(n):
        while True:
            x, y = rng.randrange(grid), rng.randrange(grid)
            if (x, y) not in taken:
                taken.add((x, y))
                break
        env.rows.append(
            unit_row(key, key % 2, types[key % len(types)], x, y, schema=schema)
        )
    return env


def action_shapes(registry):
    """Each spec action's shape, as the engine hands them to
    :func:`~repro.engine.effects.resolve_aoe`."""
    return {
        name: classify_action(fn.spec)
        for name, fn in registry.actions.items()
        if fn.spec is not None
    }


def combine_effects(env, registry, rows, aoe=()):
    """``E ⊕ effects``: *env* combined with effect *rows* and with the
    rows the deferred AoE records *aoe* resolve to -- the table one
    tick's decisions reach, whichever lowering emitted them."""
    effects = EnvironmentTable(env.schema)
    effects.rows.extend(rows)
    effects.rows.extend(
        resolve_aoe(
            aoe, env.rows, env.schema, action_shapes(registry),
            registry.constants,
        )
    )
    return combine_all([env, effects], env.schema)


@pytest.fixture()
def small_env(schema):
    return make_env(schema, n=24, grid=30, seed=0)


@pytest.fixture()
def tick_rng():
    return TickRandom(seed=1234, tick=1)


def assert_no_thread_leaks(before, *, grace=2.0):
    """Fail when a non-daemon thread outlives the test that spawned it.

    *before* is the ``set(threading.enumerate())`` captured at test
    start.  New non-daemon threads get a short grace join (teardown
    paths signal their workers asynchronously) and must be gone after
    it -- a survivor means some ``close()`` forgot to signal or join,
    exactly the bug class reprolint's concurrency pack flags statically.
    """
    import threading

    leaked = []
    for t in threading.enumerate():
        if t in before or t.daemon or t is threading.current_thread():
            continue
        t.join(timeout=grace)
        if t.is_alive():
            leaked.append(t.name)
    assert not leaked, (
        f"non-daemon thread(s) survived test teardown: {leaked}; "
        "every close()/shutdown() must signal and join its workers"
    )


@pytest.fixture()
def no_thread_leaks():
    """Opt-in guard: no non-daemon thread may outlive the test."""
    import threading

    before = set(threading.enumerate())
    yield
    assert_no_thread_leaks(before)
