"""The cyclic-GC monitor: one hook, per-generation counts, per-tick seconds."""

import gc

from repro.obs import NULL_REGISTRY, GcMonitor, MetricsRegistry


def test_counts_collections_and_times_them_per_tick():
    registry = MetricsRegistry()
    monitor = GcMonitor(registry)
    try:
        gc.collect()
        gc.collect(0)
        first = monitor.end_tick()
        quiet = monitor.end_tick()  # nothing collected since
    finally:
        monitor.close()
    snap = registry.snapshot()
    assert snap['gc_collections_total{generation="2"}'] >= 1
    assert snap['gc_collections_total{generation="0"}'] >= 1
    assert first > 0.0
    assert quiet == 0.0
    assert snap["tick_gc_seconds:count"] == 2
    assert snap["tick_gc_seconds:sum"] == first


def test_close_removes_exactly_its_own_hook_and_is_idempotent():
    before = list(gc.callbacks)
    a, b = GcMonitor(MetricsRegistry()), GcMonitor(MetricsRegistry())
    assert len(gc.callbacks) == len(before) + 2
    a.close()
    a.close()
    assert gc.callbacks == before + [b._on_gc]
    b.close()
    assert gc.callbacks == before
    gc.collect()  # a closed monitor hears nothing
    assert a.end_tick() == 0.0


def test_a_stop_without_its_start_is_ignored():
    # installed while a collection was already running
    monitor = GcMonitor(MetricsRegistry())
    try:
        monitor._on_gc("stop", {"generation": 2})
        assert monitor.end_tick() == 0.0
    finally:
        monitor.close()


def test_null_registry_cells_accept_the_writes():
    monitor = GcMonitor(NULL_REGISTRY)
    try:
        gc.collect()
        monitor.end_tick()
    finally:
        monitor.close()
    assert NULL_REGISTRY.snapshot() == {}
