"""Self-test of the perf ledger, collected by the tier-1 run.

Runs all four workloads at ``tiny`` scale (60 units, 3 ticks, 1 query
round) and checks the ledger's own promises: every metric is reported
under its name, the tracer restores what it wrapped and never lets a
child outlast its parent, a vanished wrap target reads ``null`` with a
warning, nothing outlives a run, and ``compare`` gates what it says.
"""

from __future__ import annotations

import copy
import json
import multiprocessing
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

from . import compare, spec, workloads
from .spans import Target, Tracer, resolve

ROOT = Path(__file__).resolve().parents[2]
TINY = spec.SCALES["tiny"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def records() -> dict[str, dict]:
    """Timed + traced tiny runs of every workload, with leak checks."""
    threads_before = set(threading.enumerate())
    originals = {t.name: resolve(t.name)[2] for t in spec.TRACE_TARGETS}
    out = {}
    for name, workload in spec.WORKLOADS.items():
        out[name] = {
            "timed": workloads.run_timed(workload, 0, TINY),
            "traced": workloads.run_traced(workload, 0, TINY),
        }
    # every wrapped callable is the original object again
    for name, original in originals.items():
        assert resolve(name)[2] is original, name
    # no non-daemon thread and no child process outlives the runs
    leaked = [
        t for t in set(threading.enumerate()) - threads_before
        if t.is_alive() and not t.daemon
    ]
    assert not leaked
    assert multiprocessing.active_children() == []
    return out


def test_spec_limits_and_names():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert len(spec.END_TO_END) <= 16 and len(spec.PER_LAYER) <= 128
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + list(spec.WORKLOADS):
        assert NAME.match(name), name
    assert any(
        m.name == "setup_s" and m.unit == "s" and m.better == "lower"
        for m in spec.END_TO_END
    )
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["benchmarks/ledger"]
    assert doc["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert doc["workloads"] == [
        {"name": w.name, "why": w.why} for w in spec.WORKLOADS.values()
    ]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER
    ]


def test_every_metric_is_reported(records):
    for name, runs in records.items():
        timed, traced = runs["timed"], runs["traced"]
        assert timed["failed"] == 0, timed["failures"]
        assert traced["failed"] == 0, traced["failures"]
        for metric in spec.END_TO_END:
            assert timed["metrics"][metric.name] > 0, (name, metric.name)
        for metric in spec.WORKLOAD_END_TO_END:
            if name in metric.on:
                assert timed["metrics"][metric.name] is not None, metric.name
        assert set(traced["metrics"]) == {m.name for m in spec.PER_LAYER}
        for metric in spec.PER_LAYER:
            value = traced["metrics"][metric.name]
            # null exactly where the table says the metric is undefined
            assert (value is None) == (name not in metric.on), (name, metric.name)
        assert traced["tracing"]["missing_targets"] == []
        trace_file = workloads.OUT_DIR.parent / traced["tracing"]["file"]
        events = json.loads(trace_file.read_text())
        assert events and all(e["ph"] == "X" for e in events)


def test_sharded_matches_flat_and_spans_cover_the_tick(records):
    flat = records["battle_uniform"]
    sharded = records["battle_sharded"]
    for run in ("timed", "traced"):
        assert sharded[run]["digests"] == flat[run]["digests"]
    m = flat["traced"]["metrics"]
    assert m["evaluator.probe_scan"] == 0
    assert m["indexes.update_calls"] == 0
    assert m["trace.coverage_ratio"] > 0.9
    served = records["battle_served"]["traced"]["metrics"]
    assert served["env.diff_calls"] >= 1 and served["env.encode_bytes"] > 0
    assert served["publisher.drops"] == 0


FAKE_LAYER = """
import time

def leaf():
    time.sleep(0.002)

def inner():
    leaf()
    leaf()

def outer():
    time.sleep(0.001)
    inner()

class Box:
    @staticmethod
    def static():
        leaf()
"""


def test_tracer_self_times_nesting_and_restore():
    module = types.ModuleType("ledger_fake.mod")
    exec(FAKE_LAYER, module.__dict__)
    leaf, outer, Box = module.leaf, module.outer, module.Box
    importer = types.ModuleType("ledger_fake.importer")
    importer.leaf = leaf  # ``from .mod import leaf``
    fakes = {
        "ledger_fake": types.ModuleType("ledger_fake"),
        "ledger_fake.mod": module,
        "ledger_fake.importer": importer,
    }
    sys.modules.update(fakes)
    try:
        tracer = Tracer(
            [
                Target("ledger_fake.mod.outer", "a"),
                Target("ledger_fake.mod.inner", "a"),
                Target("ledger_fake.mod.leaf", "b", count=lambda a, k, r: 3),
                Target("ledger_fake.mod.Box.static", "c"),
            ],
            module_prefix="ledger_fake",
        )
        with tracer:
            assert importer.leaf is module.leaf is not leaf
            with tracer.tick(1):
                module.outer()
                module.Box.static()
                module.Box().static()
            module.outer()  # outside a tick: passes through unrecorded
        assert module.leaf is importer.leaf is leaf and module.outer is outer
        assert isinstance(vars(Box)["static"], staticmethod)
    finally:
        for name in fakes:
            del sys.modules[name]
    (fold,) = tracer.folds
    # inner is nested in outer, same group: one call, no double count
    assert fold.calls == {"tick": 1, "a": 1, "b": 4, "c": 2}
    assert fold.count["b"] == 12
    assert fold.spans == 1 + 2 + 4 + 2
    assert fold.max_child_excess <= 0
    # a's self time holds outer's own 1 ms sleep but not the two 2 ms
    # leaf sleeps under inner
    assert 0.001 <= fold.self_s["a"] <= fold.outer_s["a"] - 0.004
    assert sum(fold.self_s.values()) == pytest.approx(fold.duration)


def test_missing_wrap_target_reads_null_with_a_warning():
    targets = [
        t if t.group != "decision.run_unit"
        else Target("repro.engine.decision.DecisionRunner.gone", t.group)
        for t in spec.TRACE_TARGETS
    ]
    tracer = Tracer(targets)
    with pytest.warns(RuntimeWarning, match="DecisionRunner.gone"):
        measured = workloads.measure(
            spec.WORKLOADS["battle_uniform"], 0, TINY,
            warmup=1, ticks=2, tracer=tracer,
        )
    assert tracer.missing == ["repro.engine.decision.DecisionRunner.gone"]
    m = workloads._span_metrics(tracer, measured.tick_stats)
    assert m["decision.run_unit_s"] is None and m["sgl.interp_self_s"] is None
    assert m["evaluator.evaluate_calls"] > 0
    assert measured.metrics["tick_s_p50"] > 0  # end-to-end numbers survive


def test_run_py_prints_the_contract_line():
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks/ledger/run.py"),
            "--workload", "battle_uniform", "--seed", "3", "--seconds", "0.05",
            "--trace", "0", "--scale", "tiny",
        ],
        capture_output=True, text=True, cwd="/",
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 < last["attempted"]
    assert list(last["metrics"]) == [m.name for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        entry = last["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0


def test_ledger_main_without_the_flat_workload(tmp_path, capsys):
    from . import __main__ as ledger

    out = tmp_path / "ledger.json"
    code = ledger.main(
        ["--scale", "tiny", "--workload", "battle_sharded", "--out", str(out)]
    )
    assert code == 0
    result = json.loads(out.read_text())
    assert result["failed"] == 0 and result["failed_share"] == 0
    assert result["nproc"] >= 1 and result["seed"] == 0
    sharded = result["workloads"]["battle_sharded"]
    assert sharded["per_layer"]["shardexec.run_tick_s"] > 0
    assert sharded["end_to_end"]["wire_bytes_per_tick"] > 0
    assert "failed_share = 0/" in capsys.readouterr().out


def _result(records: dict) -> dict:
    """A ledger result file's shape, from in-process run records."""
    return {
        "seed": 0,
        "scale": "tiny",
        "workloads": {
            name: {
                "end_to_end": {
                    m.name: runs["timed"]["metrics"].get(m.name)
                    for m in spec.END_TO_END + spec.WORKLOAD_END_TO_END
                },
                "per_layer": {
                    m.name: runs["traced"]["metrics"][m.name] for m in spec.LAYERS
                },
                "quartiles": {"timed": runs["timed"]["quartiles"]},
                "samples": {"timed": runs["timed"]["samples"]},
                "ticks": {"timed": runs["timed"]["ticks"]},
                "digests": {"timed": runs["timed"]["digests"]},
            }
            for name, runs in records.items()
        },
    }


def test_compare_gates_bounds_exact_counts_and_digests(records, tmp_path, capsys):
    base = _result(records)
    bounds = compare.load_bounds()

    def problems(mutate) -> int:
        other = copy.deepcopy(base)
        mutate(other["workloads"])
        return compare.compare(base, other, bounds)[1]

    assert problems(lambda w: None) == 0

    def slower(w):
        w["battle_large"]["end_to_end"]["tick_s_p50"] *= 1.5

    def faster(w):
        w["battle_large"]["end_to_end"]["tick_s_p50"] *= 0.5

    def one_more_probe(w):
        w["battle_uniform"]["per_layer"]["indexes.probe_calls"] += 1

    def other_state(w):
        w["battle_served"]["digests"]["timed"]["final"] = "0" * 64

    def failing(w):
        w["battle_served"]["end_to_end"]["failed_share"] = 0.01

    assert problems(slower) == 1
    assert problems(faster) == 0
    assert problems(one_more_probe) == 1
    assert problems(other_state) == 1
    assert problems(failing) == 1

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    slow = copy.deepcopy(base)
    slower(slow["workloads"])
    b.write_text(json.dumps(slow))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
