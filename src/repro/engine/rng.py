"""Deterministic per-tick randomness (Section 4.1).

"For any number i, Random(i) will always return the same number within
a single clock tick, but not necessarily between clock ticks."  The
engine satisfies this with a counter-mode generator: the value of
``Random(u, i)`` is a pure function of (simulation seed, tick number,
unit key, i), so

* scripts are replayable -- the whole simulation is deterministic given
  the seed (the paper's formalisation "is completely deterministic");
* evaluation order cannot change results, which is what lets the naive
  and the indexed engines produce bit-identical trajectories.

The mixer is SplitMix64, chosen for quality-per-cycle in pure Python.
A draw is three chained mixes, ``splitmix64(stream ^ i)`` over the
unit's *stream* for the tick, ``splitmix64(splitmix64(seed ^ tick) ^
stable_hash(key))``.  The first two are the same for every draw a unit
makes in a tick, so :class:`TickRandom` caches each unit's stream; the
cache is dropped whenever the tick (or the seed) changes, so it never
holds more than one tick's keys, and each draw costs one mix.
"""

from __future__ import annotations

import struct
from typing import Mapping

_MASK = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One SplitMix64 output for the given 64-bit state."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _fold_bytes(data: bytes, state: int) -> int:
    for chunk_start in range(0, len(data), 8):
        word = int.from_bytes(data[chunk_start : chunk_start + 8], "little")
        state = splitmix64(state ^ word)
    return splitmix64(state ^ len(data))


def stable_hash(key: object) -> int:
    """A process-independent 64-bit hash of a unit key.

    Python's builtin ``hash`` is salted per process for ``str`` (and
    ``bytes``) keys, so it must never feed the deterministic random
    stream.  This hash is a pure function of the key's value: ints map
    through their two's-complement bits, strings through their UTF-8
    bytes, floats through their IEEE-754 bits, and tuples fold their
    elements -- all mixed with SplitMix64.
    """
    if isinstance(key, int):  # bool included: True/1 and False/0 agree,
        if 0 <= key < (1 << 64):  # matching dict-key equality.  In this
            return key            # range the identity is injective;
        # negative or wider ints fold their full two's-complement bytes
        # so keys congruent mod 2**64 do not share a stream
        data = key.to_bytes(key.bit_length() // 8 + 1, "little", signed=True)
        return _fold_bytes(data, 0x494E_5421)  # "INT!"
    if isinstance(key, str):
        return _fold_bytes(key.encode("utf-8"), 0x5354_5221)  # "STR!"
    if isinstance(key, bytes):
        return _fold_bytes(key, 0x4259_5445)  # "BYTE"
    if isinstance(key, float):
        if key.is_integer():  # match int/float key interchangeability
            return stable_hash(int(key))
        # non-integral, inf, and nan all hash via their IEEE-754 bits
        # reprolint: disable=wire-version-constant -- struct here bit-puns
        # a float for hashing; nothing crosses a wire, so no frame version
        return splitmix64(struct.unpack("<Q", struct.pack("<d", key))[0])
    if isinstance(key, tuple):
        state = 0x5455_504C  # "TUPL"
        for item in key:
            state = splitmix64(state ^ stable_hash(item))
        return splitmix64(state ^ len(key))
    raise TypeError(
        f"unit key {key!r} of type {type(key).__name__} has no stable hash; "
        "use int, str, bytes, float, or tuples thereof"
    )


class TickRandom:
    """The random function ``r : Env × N → N`` threaded through a tick."""

    __slots__ = (
        "_seed", "_tick", "key_attr", "_key_hashes", "_tick_state", "_streams"
    )

    def __init__(self, seed: int, tick: int = 0, key_attr: str = "key"):
        self._seed = seed & _MASK
        self._tick = tick
        self.key_attr = key_attr
        # memoized stable_hash per key: unit keys repeat every tick, and
        # the fold over str/tuple keys is pure Python.  Bounded by the
        # number of distinct keys the simulation uses.
        self._key_hashes: dict[object, int] = {}
        self._new_tick()

    def _new_tick(self) -> None:
        """Start the per-tick stream cache over for the current seed/tick."""
        self._tick_state = splitmix64(self._seed ^ (self._tick & _MASK))
        # key -> splitmix64(tick state ^ stable_hash(key)): one tick's
        # units at most, since every change of tick or seed lands here
        self._streams: dict[object, int] = {}

    @property
    def seed(self) -> int:
        return self._seed

    @seed.setter
    def seed(self, seed: int) -> None:
        self._seed = seed & _MASK
        self._new_tick()

    @property
    def tick(self) -> int:
        return self._tick

    @tick.setter
    def tick(self, tick: int) -> None:
        self._tick = tick
        self._new_tick()

    def advance(self, tick: int | None = None) -> None:
        """Move to the next clock tick (Random values change between ticks)."""
        self.tick = self._tick + 1 if tick is None else tick

    def __call__(self, row: Mapping[str, object], i: int) -> int:
        key = row[self.key_attr]
        z = self._streams.get(key)
        if z is None:  # the unit's first draw this tick
            key_hash = self._key_hashes.get(key)
            if key_hash is None:
                key_hash = self._key_hashes[key] = stable_hash(key)
            z = self._streams[key] = splitmix64(self._tick_state ^ key_hash)
        # splitmix64(stream ^ i), inlined: this runs for every draw
        z = ((z ^ (i & 0xFFFFFFFFFFFFFFFF)) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)

    def uniform(self, row: Mapping[str, object], i: int, n: int) -> int:
        """``Random(i) mod n`` convenience used by the engine itself."""
        return self(row, i) % n
