"""Perf-trajectory gate: diff this run's ``BENCH_*.json`` against the last.

CI runs every bench with hard cross-configuration equivalence asserts
(sharded configs must be bit-identical to the flat engine, rebuilt and
patched indexes must agree on every probe).  This tool turns the uploaded JSON
artifacts into a trajectory check between runs:

* **equivalence breaks fail** (exit 1): a current file whose
  ``equivalence_ok`` / ``matches_baseline`` markers are missing or
  false, or an expected current file that was never written (the bench
  crashed before its asserts passed);
* **slowdowns warn** (exit 0): per-config ``s_per_tick`` regressions
  beyond ``--slowdown-threshold`` are reported -- as GitHub workflow
  ``::warning::`` annotations when running under Actions -- but do not
  fail the job, because single-core shared runners make absolute
  timings too noisy for a hard gate (the full-run gate lives in the
  scheduled ``bench-full`` workflow on real timings).  A labelled row
  the previous run had and this one lacks is listed as a **dropped
  row**, also as a warning: deleting a configuration is legitimate, but
  it must show in the log.

Files are matched by name, so smoke artifacts (``BENCH_*_smoke.json``)
only ever compare against smoke artifacts and full runs against full
runs; a pair whose machine context (``cpu_count``) differs is compared
with a note, since ratios survive hardware changes better than
absolutes.  An artifact (current or previous) whose bench script no
longer exists in the tree (no ``benchmarks/bench_<stem>.py``) is an
**orphan**: warned about and skipped, never failed on -- removing a
bench must not wedge the gate against its stale artifacts.

    python benchmarks/trajectory.py --current DIR [--previous DIR]
        [--slowdown-threshold 1.25]

``--previous`` may be omitted or empty (e.g. the first run of a repo,
or an expired artifact): the equivalence gate still runs, the timing
diff is skipped.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

#: Keys whose ``False`` anywhere in a bench JSON means an equivalence
#: assertion was (or would have been) violated.
EQUIVALENCE_KEYS = ("equivalence_ok", "matches_baseline")

#: Keys holding a per-config seconds-per-tick style timing, mapped to
#: the sibling key that labels the config.
TIMING_SERIES = (
    ("s_per_tick", ("config",)),
    ("rebuild_s", ("changed_fraction",)),
    ("patch_s", ("changed_fraction",)),
    ("s_per_query", ("config",)),
    ("s_per_replay_tick", ("config",)),
    ("s_per_random_access", ("config",)),
    # not timings, but the same ratio-watch applies: a quiet growth in
    # per-tick broadcast or log bytes is a wire/disk-format regression
    ("broadcast_bytes", ("config",)),
    ("log_bytes_per_tick", ("config",)),
    # observability must stay near-free: bench_obs hard-asserts the
    # metrics-only ratio <= 1.03, and the trajectory watches its drift
    ("overhead_ratio", ("config",)),
)


def _bench_stem(path: str) -> str:
    """``.../BENCH_shards_smoke.json`` -> ``shards`` (the bench name)."""
    name = os.path.basename(path)
    stem = name[len("BENCH_"):] if name.startswith("BENCH_") else name
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    if stem.endswith("_smoke"):
        stem = stem[: -len("_smoke")]
    return stem


def _has_bench_script(stem: str) -> bool:
    """True when ``benchmarks/bench_<stem>.py`` exists in this tree."""
    root = os.path.dirname(os.path.abspath(__file__))
    return os.path.exists(os.path.join(root, f"bench_{stem}.py"))


def _warn(message: str) -> None:
    if os.environ.get("GITHUB_ACTIONS") == "true":
        print(f"::warning::{message}")
    else:
        print(f"WARNING: {message}")


def _error(message: str) -> int:
    if os.environ.get("GITHUB_ACTIONS") == "true":
        print(f"::error::{message}")
    else:
        print(f"ERROR: {message}")
    return 1


def find_equivalence_breaks(node: object, path: str = "$") -> list[str]:
    """All JSON paths where an equivalence marker is falsy."""
    breaks: list[str] = []
    if isinstance(node, dict):
        for key, value in node.items():
            if key in EQUIVALENCE_KEYS and value is not True:
                breaks.append(f"{path}.{key}={value!r}")
            breaks.extend(find_equivalence_breaks(value, f"{path}.{key}"))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            breaks.extend(find_equivalence_breaks(item, f"{path}[{i}]"))
    return breaks


def has_equivalence_marker(node: object) -> bool:
    """True when at least one equivalence marker appears anywhere."""
    if isinstance(node, dict):
        return any(k in EQUIVALENCE_KEYS for k in node) or any(
            has_equivalence_marker(v) for v in node.values()
        )
    if isinstance(node, list):
        return any(has_equivalence_marker(item) for item in node)
    return False


def timing_series(node: object, path: str = "$") -> dict[str, float]:
    """Flatten every labelled timing in a bench JSON to ``label -> s``."""
    out: dict[str, float] = {}
    if isinstance(node, dict):
        for metric, label_keys in TIMING_SERIES:
            value = node.get(metric)
            if isinstance(value, (int, float)):
                label = next(
                    (str(node[k]) for k in label_keys if k in node), path
                )
                out[f"{label}:{metric}"] = float(value)
        for key, value in node.items():
            out.update(timing_series(value, f"{path}.{key}"))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            out.update(timing_series(item, f"{path}[{i}]"))
    return out


def compare_file(name: str, current: dict, previous: dict, threshold: float):
    """Warn on per-config slowdowns beyond *threshold* (ratio cur/prev)."""
    if current.get("cpu_count") != previous.get("cpu_count"):
        print(
            f"{name}: machine context changed "
            f"(cpu_count {previous.get('cpu_count')} -> "
            f"{current.get('cpu_count')}); ratios are indicative only"
        )
    cur = timing_series(current)
    prev = timing_series(previous)
    compared = 0
    for label, cur_s in sorted(cur.items()):
        prev_s = prev.get(label)
        if prev_s is None or prev_s <= 0:
            continue
        compared += 1
        ratio = cur_s / prev_s
        if ratio > threshold:
            _warn(
                f"{name}: {label} slowed {ratio:.2f}x "
                f"({prev_s:.4f}s -> {cur_s:.4f}s per tick/round)"
            )
        elif ratio < 1 / threshold:
            print(f"{name}: {label} sped up {1 / ratio:.2f}x")
    print(f"{name}: compared {compared} timing series against previous run")
    dropped = sorted(set(prev) - set(cur))
    if dropped:
        # a configuration removed on purpose is fine, one that silently
        # stopped being measured is not: say which, let a human decide
        _warn(
            f"{name}: dropped rows (previous run only): " + ", ".join(dropped)
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current", required=True,
        help="directory holding this run's BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--previous", default=None,
        help="directory holding the previous run's artifacts (optional)",
    )
    parser.add_argument(
        "--slowdown-threshold", type=float, default=1.25,
        help="warn when current/previous s_per_tick exceeds this ratio "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    current_files = sorted(
        glob.glob(os.path.join(args.current, "**", "BENCH_*.json"),
                  recursive=True)
    )
    if not current_files:
        return _error(
            f"no BENCH_*.json under {args.current!r}: the bench step "
            "failed before its equivalence asserts passed"
        )

    failures = 0

    # a bench the previous run produced but this run did not means the
    # bench crashed (or was dropped) before its asserts passed -- exactly
    # the silent failure mode this gate exists to catch.  Benches are
    # matched by *stem* (BENCH_shards.json and BENCH_shards_smoke.json
    # are the same bench), so a filename-scheme change -- like the move
    # of smoke output to *_smoke.json -- cannot wedge the gate into a
    # self-perpetuating failure against the last pre-change artifact.
    if args.previous:
        current_stems = {_bench_stem(p) for p in current_files}
        previous_stems = {
            _bench_stem(p)
            for p in glob.glob(
                os.path.join(args.previous, "**", "BENCH_*.json"),
                recursive=True,
            )
        }
        for missing in sorted(previous_stems - current_stems):
            if not _has_bench_script(missing):
                # the bench itself was removed from the tree: its stale
                # artifact is an orphan, not a crashed bench -- failing
                # here would wedge the gate forever after any removal
                _warn(
                    f"bench {missing!r}: previous artifact has no "
                    f"benchmarks/bench_{missing}.py in this tree "
                    "(orphaned); skipping"
                )
                continue
            failures += _error(
                f"bench {missing!r}: present in the previous run but not "
                "written by this one"
            )

    for path in current_files:
        name = os.path.basename(path)
        stem = _bench_stem(path)
        if not _has_bench_script(stem):
            _warn(
                f"{name}: no benchmarks/bench_{stem}.py in this tree "
                "(orphaned artifact); skipping"
            )
            continue
        with open(path, encoding="utf-8") as fh:
            current = json.load(fh)
        breaks = find_equivalence_breaks(current)
        if breaks:
            failures += _error(
                f"{name}: cross-config equivalence break: "
                + ", ".join(breaks)
            )
            continue
        if not has_equivalence_marker(current):
            failures += _error(
                f"{name}: no equivalence marker "
                f"({' / '.join(EQUIVALENCE_KEYS)}) anywhere in the file; "
                "an unmarked bench cannot prove its configs agreed"
            )
            continue
        print(f"{name}: equivalence markers ok")

        if args.previous:
            prev_matches = sorted(
                glob.glob(
                    os.path.join(args.previous, "**", name), recursive=True
                )
            )
            if not prev_matches:
                print(f"{name}: no previous artifact; skipping timing diff")
                continue
            with open(prev_matches[0], encoding="utf-8") as fh:
                previous = json.load(fh)
            compare_file(name, current, previous, args.slowdown_threshold)
        else:
            print(f"{name}: no previous run supplied; skipping timing diff")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
