"""Run the whole ledger: every workload, timed run then traced run.

    PYTHONPATH=src:. python -m benchmarks.ledger [--workload NAME]... \
        [--seed N] [--out FILE] [--scale full|tiny]

Each run is its own ``run.py`` process (a fresh interpreter, so peak
RSS, heap state and worker processes never leak from one workload into
the next).  The timed run (tracing off) yields the end-to-end metrics,
the shorter traced run the per-layer metrics.  Afterwards the states
the workloads reached are cross-checked, every metric is listed by name
with its unit, and one result JSON is written under ``out/``.  The exit
code is non-zero if any operation or check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from . import spec

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


def run_one(workload: str, seed: int, scale: str, trace: int) -> dict:
    """One ``run.py`` process; returns its full record."""
    out = OUT_DIR / f"run-{workload}-seed{seed}-trace{trace}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--trace", str(trace), "--out", str(out),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    # the child's metric list, without its machine-readable last line
    print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
    if not out.exists():
        raise SystemExit(f"{workload} (trace {trace}) crashed: exit {done.returncode}")
    record = json.loads(out.read_text())
    out.unlink()
    return record


def cross_checks(
    timed: dict[str, dict], seed: int, scale: str
) -> list[tuple[bool, str]]:
    """``battle_sharded`` must reach ``battle_uniform``'s states.

    Both run the same seed and fixed tick counts, so their digests are
    comparable at the check tick and at the final tick.  Without
    ``battle_uniform`` in the run, an untimed flat reference supplies
    the final digest (the sharded run checks the earlier one itself).
    Returns ``(ok, what)`` per check made.
    """
    sharded = timed.get("battle_sharded")
    if sharded is None:
        return []
    want = sharded["digests"]
    flat = timed.get("battle_uniform")
    if flat is not None:
        got = flat["digests"]
    else:
        from .workloads import reference_digest

        units = spec.SCALES[scale].units or spec.WORKLOADS["battle_sharded"].units
        got = dict(want, final=reference_digest(units, seed, want["final_tick"]))
    return [
        (
            got[tick] == want[tick] and got[digest] == want[digest],
            f"battle_sharded differs from the flat engine at tick {want[tick]}",
        )
        for tick, digest in (("check_tick", "check"), ("final_tick", "final"))
    ]


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=list(spec.WORKLOADS),
        help="run only this workload (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=list(spec.SCALES), default="full")
    parser.add_argument("--out", help="result file (default: out/ledger-seed<N>.json)")
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    names = [w for w in spec.WORKLOADS if w in (args.workload or spec.WORKLOADS)]
    started = time.perf_counter()
    timed = {w: run_one(w, args.seed, args.scale, trace=0) for w in names}
    traced = {w: run_one(w, args.seed, args.scale, trace=1) for w in names}

    checks = cross_checks(timed, args.seed, args.scale)
    failures = [what for ok, what in checks if not ok]
    attempted = len(checks)
    failed = len(failures)
    workloads = {}
    for name in names:
        t, p = timed[name], traced[name]
        attempted += t["attempted"] + p["attempted"]
        failed += t["failed"] + p["failed"]
        failures += [f"{name}: {f}" for f in t["failures"] + p["failures"]]
        e2e = spec.END_TO_END + spec.WORKLOAD_END_TO_END
        workloads[name] = {
            "end_to_end": {
                x.name: t["metrics"].get(x.name) if name in x.on else None
                for x in e2e
            },
            "per_layer": {x.name: p["metrics"][x.name] for x in spec.LAYERS},
            "quartiles": {"timed": t["quartiles"], "traced": p["quartiles"]},
            "samples": {"timed": t["samples"], "traced": p["samples"]},
            "ticks": {"timed": t["ticks"], "traced": p["ticks"]},
            "digests": {"timed": t["digests"], "traced": p["digests"]},
            "tracing": p["tracing"],
        }

    nproc = os.cpu_count() or 1
    speedup = None
    if {"battle_uniform", "battle_sharded"} <= set(names):
        speedup = (
            timed["battle_uniform"]["metrics"]["tick_s_p50"]
            / timed["battle_sharded"]["metrics"]["tick_s_p50"]
        )
    result = {
        "ledger": 1,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc,
        "seed": args.seed,
        "scale": args.scale,
        "wall_s": time.perf_counter() - started,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": failures,
        "parallel_speedup": speedup,
        # with one core the two workers and the coordinator time-share it
        "unresolved": ["battle_sharded"] if nproc < 2 else [],
        "workloads": workloads,
    }
    out = Path(args.out) if args.out else OUT_DIR / f"ledger-seed{args.seed}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    print()
    for failure in failures:
        print(f"FAILED: {failure}")
    if speedup is not None:
        note = "  (unresolved: fewer than 2 cores)" if nproc < 2 else ""
        print(
            f"parallel_speedup = battle_uniform.tick_s_p50 / "
            f"battle_sharded.tick_s_p50 = {speedup:.3f}{note}"
        )
    print(
        f"failed_share = {failed}/{attempted}; "
        f"{result['wall_s']:.0f} s; wrote {out}"
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
