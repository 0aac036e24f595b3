"""Process-local observability: metrics registry, tracing, watchdog.

The package is deliberately stdlib-only and engine-agnostic: the engine
layers (`clock`, `shardexec`, `publisher`, `persist.log`, `evaluator`)
hold pre-resolved instrument handles and call ``inc``/``observe`` on
them, so the cost of *disabled* observability is one attribute access
and a no-op method call -- no allocation, no branching beyond the call.

* :mod:`repro.obs.registry` -- counters, gauges, histograms with stable
  names and labels; Prometheus text exposition; a shared null registry
  whose instruments discard every write.
* :mod:`repro.obs.trace` -- epoch-correlated Chrome trace-event
  recorder (JSON array of ``X``/``i``/``M`` events, Perfetto-loadable).
* :mod:`repro.obs.gcstats` -- cyclic-GC collections per generation and
  collector seconds per tick, from one ``gc.callbacks`` hook.
* :mod:`repro.obs.watchdog` -- slow-tick watchdog flagging ticks beyond
  ``k x EWMA`` of recent totals with the offending stage breakdown.
"""

from repro.obs.gcstats import GcMonitor  # noqa: F401
from repro.obs.registry import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    RegistryStats,
    StatCounters,
    serve_prometheus,
)
from repro.obs.trace import (  # noqa: F401
    TID_LOG,
    TID_MAIN,
    TID_PUBLISHER,
    TID_WORKER_BASE,
    TraceRecorder,
    load_trace,
)
from repro.obs.watchdog import SlowTickWatchdog  # noqa: F401
