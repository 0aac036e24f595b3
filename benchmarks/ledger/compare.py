"""Compare two ledger result files metric by metric.

    PYTHONPATH=src:. python -m benchmarks.ledger.compare A.json B.json

*A* is the base (the parent commit, or the first of two runs of one
commit), *B* the candidate.  One row per (workload, metric) shows both
values and the ratio ``B/A``.  The exit code is non-zero when

* an end-to-end metric is worse in *B* by more than its bound (bounds
  of the contract's metrics are read from ``BENCHMARK.json``, those of
  the workload-specific ones from ``spec.py``);
* an exact count or a state digest differs at all (checked when both
  files ran the same seed, scale and tick counts);
* ``failed_share`` rose.

A gated metric that stays within its bound is *unchanged* -- or
*unresolved* when the quartile spread of its own samples, in either
file, is wider than the bound: the runs then cannot tell a regression
of that size from noise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import spec

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: ``tick_s_p80`` is gated only from this many timed ticks up.
P80_MIN_SAMPLES = 50

#: Which timing sample set a gated metric is computed from.
_SAMPLES_OF = {
    "tick_s_p50": "tick_s",
    "tick_s_p80": "tick_s",
    "unit_ticks_per_s": "tick_s",
    "query_ms_p50": "query_ms",
    "query_ms_p90": "query_ms",
}


def load_bounds() -> dict[str, float]:
    bounds = {
        m.name: m.bound for m in spec.WORKLOAD_END_TO_END if m.bound is not None
    }
    contract = json.loads(BENCHMARK_JSON.read_text())
    bounds.update({m["name"]: m["bound"] for m in contract["end_to_end"]})
    return bounds


def spread(result: dict, workload: str, metric: str) -> float | None:
    """Quartile spread of the metric's own samples, as a share of their
    median (``None`` when the metric has no sample set)."""
    q = result["workloads"][workload]["quartiles"]["timed"].get(
        _SAMPLES_OF.get(metric, "")
    )
    return (q[2] - q[0]) / q[1] if q else None


def judge(
    metric: str, va, vb, *, gated: float | None, same_inputs: bool, noisy: bool
) -> tuple[str, bool]:
    """``(status, is a problem)`` of one metric's pair of values."""
    meta = spec.METRICS.get(metric)
    if va is None or vb is None:
        return ("" if va is vb else "appeared/vanished"), False
    if meta is not None and meta.exact:
        if not same_inputs:
            return "exact (inputs differ: not compared)", False
        if metric == "failed_share":
            return ("ROSE", True) if vb > va else ("exact", False)
        return ("exact", False) if va == vb else ("DIFFERS", True)
    if gated is None:
        return "", False
    worse = (vb - va) / va if meta.better == "lower" else (va - vb) / va
    if worse > gated:
        return f"REGRESSION (> {gated:.0%})", True
    if -worse > gated:
        return "improved", False
    return ("unresolved" if noisy else "unchanged"), False


def compare(a: dict, b: dict, bounds: dict[str, float]) -> tuple[list[tuple], int]:
    """``(rows, problems)``; a row is ``(workload, metric, a, b, status)``."""
    rows: list[tuple] = []
    problems = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        same_inputs = (
            a["seed"] == b["seed"]
            and a["scale"] == b["scale"]
            and wa["ticks"] == wb["ticks"]
        )
        for section in ("end_to_end", "per_layer"):
            for metric, va in wa[section].items():
                vb = wb[section].get(metric)
                gated = bounds.get(metric) if section == "end_to_end" else None
                if metric == "tick_s_p80" and min(
                    w["samples"]["timed"]["tick_s"] for w in (wa, wb)
                ) < P80_MIN_SAMPLES:
                    gated = None  # fewer than ten samples beyond it
                spreads = [spread(r, name, metric) for r in (a, b)]
                status, bad = judge(
                    metric, va, vb,
                    gated=gated,
                    same_inputs=same_inputs,
                    noisy=gated is not None
                    and any(s is not None and s > gated for s in spreads),
                )
                problems += bad
                rows.append((name, metric, va, vb, status))
        if same_inputs:
            ok = wa["digests"] == wb["digests"]
            problems += not ok
            rows.append(
                (name, "state_digest", None, None, "exact" if ok else "DIFFERS")
            )
    return rows, problems


def _fmt(value: object) -> str:
    return "null" if value is None else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger.compare",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("a", help="base result file")
    parser.add_argument("b", help="candidate result file")
    args = parser.parse_args(argv)
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    rows, problems = compare(a, b, load_bounds())
    print(f"{'workload':<15} {'metric':<38} {'A (base)':>12} {'B':>12} "
          f"{'B/A':>7}  status")
    for workload, metric, va, vb, status in rows:
        ratio = f"{vb / va:.3f}" if va and vb is not None else ""
        unit = spec.METRICS[metric].unit if metric in spec.METRICS else ""
        print(f"{workload:<15} {metric:<38} {_fmt(va):>12} {_fmt(vb):>12} "
              f"{ratio:>7}  {status} [{unit}]")
    print(f"\n{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
