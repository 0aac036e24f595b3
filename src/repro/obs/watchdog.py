"""Slow-tick watchdog: flag ticks beyond ``k x EWMA`` of recent totals.

The watchdog keeps an exponentially-weighted moving average of tick
totals (the same alpha the evaluator's cost model uses) and, once it
has seen a short warmup, flags any tick whose total exceeds
``factor * EWMA``.  A flagged tick is:

* logged at ``WARNING`` with the offending stage breakdown sorted by
  cost and, when metrics are on, the tick's cyclic-GC seconds (the
  runbook line an operator greps for),
* counted in the registry (``watchdog_slow_ticks``), and
* dropped into the trace as an ``i`` event when tracing is on.

The EWMA is **not** fed the flagged total (a stall must not teach the
watchdog that stalls are normal); it resumes learning on the next clean
tick.  All inputs are the wall-clock timings `TickStats` already
measures -- the watchdog reads diagnostics and never touches simulation
state, so it cannot perturb a trajectory.
"""

from __future__ import annotations

import logging

logger = logging.getLogger("repro.obs.watchdog")

__all__ = ["SlowTickWatchdog"]


class SlowTickWatchdog:
    """Flag ticks slower than ``factor`` times the EWMA of recent totals.

    :param factor: the ``k`` in ``k x EWMA``; must be > 1.
    :param alpha: EWMA smoothing weight for each new clean total.
    :param warmup: ticks observed before flagging starts (the first few
        ticks pay index-build and worker-snapshot costs that are not
        stalls).
    """

    def __init__(self, factor: float, *, alpha: float = 0.3,
                 warmup: int = 3) -> None:
        if not factor > 1.0:
            raise ValueError(f"slow_tick_factor must be > 1, got {factor}")
        self.factor = factor
        self.alpha = alpha
        self.warmup = warmup
        self.ewma: float | None = None
        self.observed = 0
        self.flagged: list[dict[str, object]] = []

    def observe(self, tick: int, total: float, breakdown: dict[str, float],
                gc_seconds: float | None = None) -> bool:
        """Feed one tick's total, stage breakdown and (when measured)
        collector seconds; True when flagged."""
        self.observed += 1
        if self.ewma is None:
            self.ewma = total
            return False
        slow = (
            self.observed > self.warmup
            and total > self.factor * self.ewma
        )
        if slow:
            stages = ", ".join(
                f"{name}={seconds * 1e3:.2f}ms"
                for name, seconds in sorted(
                    breakdown.items(), key=lambda kv: -kv[1]
                )
                if seconds
            )
            if gc_seconds is not None:
                stages += f"; gc={gc_seconds * 1e3:.2f}ms"
            logger.warning(
                "slow tick %d: %.2fms > %.1fx EWMA %.2fms (%s)",
                tick, total * 1e3, self.factor, self.ewma * 1e3, stages,
            )
            self.flagged.append({
                "tick": tick,
                "total": total,
                "ewma": self.ewma,
                "breakdown": dict(breakdown),
                "gc_seconds": gc_seconds,
            })
        else:
            self.ewma += self.alpha * (total - self.ewma)
        return slow
