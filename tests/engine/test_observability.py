"""End-to-end observability: bit-identical trajectories, registry-backed
stat views, epoch-correlated traces, the watchdog, and the ops endpoints.

The layer's contract is "read-only diagnostics": every test here first
holds the trajectory fixed (state signatures with observability off vs
on), then checks the diagnostics themselves -- the registry mirrors the
ad-hoc stat surfaces it absorbed, traces cover every pipeline stage with
the owning epoch, and the live endpoints (Prometheus scrape, spectator
``metrics`` query) serve the same numbers.
"""

import gc
import json
import time
import urllib.request

import pytest

from repro.game.battle import BattleSimulation
from repro.obs import NULL_REGISTRY, load_trace


def signature(ticks=6, n=48, **kwargs):
    with BattleSimulation(n, density=0.02, seed=11, **kwargs) as sim:
        sim.run(ticks)
        return sim.state_signature()


# -- trajectories are bit-identical with observability on ---------------------


def test_metrics_do_not_perturb_trajectory():
    assert signature() == signature(metrics=True)


def test_trace_and_watchdog_do_not_perturb_trajectory(tmp_path):
    assert signature() == signature(
        metrics=True,
        trace_path=str(tmp_path / "trace.json"),
        slow_tick_factor=1000.0,
    )


# -- disabled metrics are a true no-op ----------------------------------------


def test_disabled_engine_uses_the_shared_null_registry():
    with BattleSimulation(32, density=0.02) as sim:
        engine = sim.engine
        assert engine.metrics is NULL_REGISTRY
        assert sim.metrics is NULL_REGISTRY
        # every pre-resolved instrument is the shared null cell -- the
        # hot path mutates one dead object, allocating nothing per tick
        assert engine._m_ticks is NULL_REGISTRY.counter("anything")
        assert engine._m_tick_seconds is NULL_REGISTRY.histogram("x")
        sim.run(3)
        assert NULL_REGISTRY.snapshot() == {}
        assert engine.trace is None
        assert engine.watchdog is None
        assert engine._gc_monitor is None  # no gc hook without metrics
        with pytest.raises(RuntimeError):
            sim.serve_metrics()


# -- the GC bill is a metric ---------------------------------------------------


def test_gc_hook_lives_exactly_as_long_as_a_metrics_engine():
    hooks = list(gc.callbacks)
    with BattleSimulation(32, density=0.02) as sim:
        assert gc.callbacks == hooks
    with BattleSimulation(32, density=0.02, metrics=True) as sim:
        assert len(gc.callbacks) == len(hooks) + 1
        sim.run(4)
        gc.collect()
        stats = sim.run(1).tick_stats  # all five ticks
        snap = sim.metrics.snapshot()
        assert snap["tick_gc_seconds:count"] == 5  # one observation per tick
        assert 0.0 < snap["tick_gc_seconds:sum"] < sum(
            s.total_time for s in stats
        ) + 1.0
        assert snap['gc_collections_total{generation="2"}'] >= 1
        sim.close()
        assert gc.callbacks == hooks
    assert gc.callbacks == hooks  # the second close() found nothing to remove


# -- the registry absorbs the ad-hoc stat surfaces ----------------------------


def test_evaluator_stats_stay_dict_compatible_and_mirror_registry():
    with BattleSimulation(48, density=0.02, metrics=True) as sim:
        sim.run(5)
        stats = sim.engine.agg_eval.stats
        snap = sim.metrics.snapshot()
        assert stats, "evaluator accumulated no counters"
        # the old dict accessors and the registry see the same numbers
        for key, value in dict(stats).items():
            assert snap[f"evaluator_{key}"] == value
        assert stats.get("nonexistent", 0) == 0


def test_tickstats_fields_mirror_registry_series():
    with BattleSimulation(48, density=0.02, metrics=True) as sim:
        stats_list = [sim.tick() for _ in range(5)]
        snap = sim.metrics.snapshot()
        assert snap["ticks_total"] == 5
        assert snap["epoch"] == stats_list[-1].tick + 1
        assert snap["effect_rows_total"] == sum(
            s.effect_rows for s in stats_list
        )
        assert snap["tick_seconds:count"] == 5
        assert snap["tick_seconds:sum"] == pytest.approx(
            sum(s.total_time for s in stats_list)
        )
        assert snap['stage_seconds{stage="decision"}:sum'] == pytest.approx(
            sum(s.decision_time for s in stats_list)
        )
        assert snap["log_bytes_total"] == sum(s.log_bytes for s in stats_list)


def test_worker_stats_mirror_registry(tmp_path):
    with BattleSimulation(
        48, density=0.02, num_shards=2, parallelism="processes", metrics=True
    ) as sim:
        sim.run(4)
        pool_stats = sim.engine.worker_stats
        snap = sim.metrics.snapshot()
        # the old attribute accessors still work and match the registry
        assert pool_stats.ticks == 4
        assert snap["worker_ticks"] == 4
        assert pool_stats.delta_broadcasts == snap["worker_delta_broadcasts"]
        assert pool_stats.bytes_broadcast == snap["worker_bytes_broadcast"]
        assert pool_stats.last_tick_bytes == snap["worker_last_tick_bytes"]


def test_publisher_and_epochlog_stats_mirror_registry(tmp_path):
    log = tmp_path / "epochs.log"
    with BattleSimulation(
        32, density=0.02, spectators=True, epoch_log=str(log), metrics=True
    ) as sim:
        spec = sim.spawn_spectator()
        try:
            sim.run(4)
            snap = sim.metrics.snapshot()
            pub = sim.engine.publisher.stats
            assert pub.ticks == snap["publisher_ticks"] == 4
            assert pub.subscribers_accepted == 1
            assert snap["publisher_subscribers_accepted"] == 1
            assert pub.bytes_sent == snap["publisher_bytes_sent"] > 0
            logstats = sim.engine.epoch_log.stats
            assert logstats.records == snap["epochlog_records"] > 0
            assert logstats.last_epoch == snap["epochlog_last_epoch"]
        finally:
            spec.close()


# -- tracing: every stage, worker round trip, publish, and log write ----------


def test_serial_trace_covers_the_stage_pipeline(tmp_path):
    path = tmp_path / "trace.json"
    with BattleSimulation(48, density=0.02, trace_path=str(path)) as sim:
        sim.run(4)
    events = json.loads(path.read_text())  # clean close => strict JSON
    spans = [e for e in events if e["ph"] == "X"]
    names = {e["name"] for e in spans}
    assert {
        "tick", "partition", "maintenance", "decision", "aoe", "combine",
        "mechanics",
    } <= names
    # every span is epoch-stamped, and the stage spans nest inside their
    # tick's parent span on the shared perf_counter clock
    assert all("epoch" in e["args"] for e in spans)
    ticks = {
        e["args"]["epoch"]: (e["ts"], e["ts"] + e["dur"])
        for e in spans
        if e["name"] == "tick"
    }
    assert len(ticks) == 4
    for e in spans:
        if e["name"] == "tick" or e["tid"] != 0:
            continue
        lo, hi = ticks[e["args"]["epoch"]]
        assert lo - 0.01 <= e["ts"] and e["ts"] + e["dur"] <= hi + 0.01


def test_distributed_trace_covers_workers_publish_and_log(tmp_path):
    path = tmp_path / "trace.json"
    log = tmp_path / "epochs.log"
    with BattleSimulation(
        48,
        density=0.02,
        num_shards=2,
        parallelism="processes",
        spectators=True,
        epoch_log=str(log),
        epoch_log_fsync="always",
        trace_path=str(path),
    ) as sim:
        spec = sim.spawn_spectator()
        try:
            sim.run(4)
        finally:
            spec.close()
    events = load_trace(str(path))
    spans = [e for e in events if e["ph"] == "X"]
    names = {e["name"] for e in spans}
    assert {
        "tick", "partition", "decision", "aoe", "combine", "mechanics",
        "publish", "log_append",                       # coordinator stages
        "worker_rtt",                                  # per-worker row
        "publish_send",                                # per-subscriber send
        "log_encode", "log_write", "log_fsync",        # epoch-log writer
    } <= names
    assert all("epoch" in e["args"] for e in spans)
    # worker round trips land on per-worker tracks, correlated by epoch
    rtt = [e for e in spans if e["name"] == "worker_rtt"]
    assert {e["tid"] for e in rtt} == {10, 11}
    assert {e["args"]["worker"] for e in rtt} == {0, 1}
    # the publisher names its peer and payload mode
    sends = [e for e in spans if e["name"] == "publish_send"]
    assert sends and all(e["tid"] == 1 for e in sends)
    assert {e["args"]["mode"] for e in sends} <= {"delta", "snapshot"}
    # fsync spans exist for every appended epoch under fsync="always",
    # on the log-writer track
    fsyncs = [e for e in spans if e["name"] == "log_fsync"]
    assert {e["tid"] for e in fsyncs} == {2}
    assert {e["args"]["epoch"] for e in fsyncs} >= {2, 3, 4, 5}
    # the track metadata names the logical rows
    tracks = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert "worker 0" in tracks[10]
    assert "publisher" in tracks[1]
    assert "log" in tracks[2]


# -- the watchdog -------------------------------------------------------------


def test_watchdog_flags_an_injected_stall(tmp_path):
    path = tmp_path / "trace.json"
    with BattleSimulation(
        32,
        density=0.02,
        metrics=True,
        trace_path=str(path),
        slow_tick_factor=5.0,
    ) as sim:
        real_mechanics = sim.engine.mechanics
        stall_at = {"tick": 6}

        def stalling_mechanics(env, rng, tick):
            if tick == stall_at["tick"]:
                time.sleep(0.25)
            return real_mechanics(env, rng, tick)

        sim.engine.mechanics = stalling_mechanics
        # a full collection of the whole test session's heap takes tens
        # of milliseconds -- a stall of its own against ~5 ms ticks
        gc.collect()
        gc.disable()
        try:
            sim.run(8)
        finally:
            gc.enable()
        dog = sim.engine.watchdog
        assert [f["tick"] for f in dog.flagged] == [6]
        (flag,) = dog.flagged
        assert flag["breakdown"]["mechanics"] >= 0.25
        assert flag["gc_seconds"] == 0.0  # measured (metrics on), gc disabled
        assert sim.metrics.snapshot()["watchdog_slow_ticks_total"] == 1
    instants = [
        e for e in load_trace(str(path))
        if e["ph"] == "i" and e["name"] == "slow_tick"
    ]
    assert len(instants) == 1
    assert instants[0]["args"]["epoch"] == 7  # post-tick epoch of tick 6


def test_watchdog_quiet_on_a_clean_run():
    with BattleSimulation(
        32, density=0.02, metrics=True, slow_tick_factor=1000.0
    ) as sim:
        sim.run(8)
        assert sim.engine.watchdog.flagged == []
        assert sim.metrics.snapshot()["watchdog_slow_ticks_total"] == 0


def test_bad_slow_tick_factor_rejected():
    with pytest.raises(ValueError):
        BattleSimulation(16, slow_tick_factor=1.0)


# -- the live ops endpoints ---------------------------------------------------


def test_prometheus_endpoint_serves_live_numbers():
    with BattleSimulation(32, density=0.02, metrics=True) as sim:
        sim.run(3)
        host, port = sim.serve_metrics()
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=5
        ) as resp:
            body = resp.read().decode()
        assert "repro_ticks_total 3" in body
        sim.run(2)
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=5
        ) as resp:
            assert "repro_ticks_total 5" in resp.read().decode()
        # double-serve is refused, the address is introspectable
        assert sim.engine.metrics_address == (host, port)
        with pytest.raises(RuntimeError):
            sim.serve_metrics()


def test_spectator_metrics_query():
    with BattleSimulation(32, density=0.02, spectators=True) as sim:
        spec = sim.spawn_spectator()
        try:
            sim.run(4)
            with spec.client() as client:
                reply = client.metrics()
            snap = reply["snapshot"]
            assert snap["spectator_epoch"] == 5  # post-tick epoch of tick 4
            assert snap["spectator_feed_alive"] == 1
            applied = (
                snap["spectator_updates_applied_total"]
                + snap["spectator_snapshots_applied_total"]
            )
            assert applied >= 4
            assert snap["spectator_history_bytes"] > 0
            assert "spectator_epoch" in reply["prometheus"]
        finally:
            spec.close()
