"""One run of one workload -- the command ``BENCHMARK.json`` names.

    python3 benchmarks/ledger/run.py --workload NAME --seed N \
        [--seconds S] --trace 0|1 [--scale full|tiny] [--out FILE]

``--trace 0`` is the timed run (tracing off) and prints the end-to-end
metrics; ``--trace 1`` is the traced run and prints the per-layer
metrics.  With ``--seconds`` the measured phase is time-bounded;
without it the workload's fixed tick counts apply.  Every metric is
printed by name with its unit, outputs are checked, and the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The exit code is non-zero when any check
failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    from benchmarks.ledger import spec, workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=list(spec.SCALES), default="full")
    parser.add_argument("--out", help="also write the full run record here")
    args = parser.parse_args(argv)

    workload = spec.WORKLOADS[args.workload]
    scale = spec.SCALES[args.scale]
    run = workloads.run_traced if args.trace else workloads.run_timed
    record = run(workload, args.seed, scale, args.seconds)
    record.update(
        workload=workload.name, seed=args.seed, trace=args.trace,
        scale=args.scale, seconds=args.seconds,
    )

    reported = spec.PER_LAYER if args.trace else spec.END_TO_END
    line = {}
    for metric in reported:
        value = record["metrics"].get(metric.name)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{workload.name}  {metric.name:<40} {shown:>14} {metric.unit}")
        # the result line carries numbers only: a metric that is not
        # defined on this workload reads 0 there (null in --out)
        line[metric.name] = {
            "value": 0 if value is None else value, "unit": metric.unit
        }
    for failure in record["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": line,
            }
        )
    )
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    # run as a script from any directory: the package and the program
    # it measures are found relative to this file
    root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(root / "src"), str(root)]
    sys.exit(main())
