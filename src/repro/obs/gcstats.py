"""Cyclic-GC accounting: collections per generation, seconds per tick.

A tick that rebuilds its indexes allocates tens of thousands of
GC-tracked containers, and the collector's pauses land inside whatever
stage happens to cross the allocation threshold -- so stage timings
alone cannot say how much of a tick was collection.  :class:`GcMonitor`
registers one ``gc.callbacks`` hook that times every collection and
feeds

* ``gc_collections_total{generation}`` -- collections since the engine
  was built, and
* ``tick_gc_seconds`` -- one observation per tick: the collector time
  that fell inside it (from any thread; a collection stalls them all).

The hook is process-wide by nature (``gc.callbacks`` is), so each
monitor sees every collection in the process; it is installed only when
metrics are enabled and removed by :meth:`GcMonitor.close`.  It reads
the clock and two counters and never touches simulation state.
"""

from __future__ import annotations

import gc
import time
from typing import Mapping

from repro.obs.registry import MetricsRegistry

__all__ = ["GcMonitor"]


class GcMonitor:
    """Times collections between :meth:`end_tick` calls."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._collections = [
            registry.counter("gc_collections_total", generation=generation)
            for generation in range(3)
        ]
        self._tick_seconds = registry.histogram("tick_gc_seconds")
        self._started: float | None = None
        # Collections never overlap, so ``_total`` has one writer at a
        # time (the hook) and ``_seen`` one writer ever (the tick
        # thread): no lock, which a hook re-entered from an allocation
        # inside ``end_tick`` would deadlock on.
        self._total = 0.0
        self._seen = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Mapping[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:  # else: installed mid-collection
            self._total += time.perf_counter() - self._started
            self._started = None
            self._collections[info["generation"]].inc()

    def end_tick(self) -> float:
        """Observe and return the collector seconds since the last call."""
        total = self._total
        seconds = total - self._seen
        self._seen = total
        self._tick_seconds.observe(seconds)
        return seconds

    def close(self) -> None:
        """Unregister the hook; idempotent."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
