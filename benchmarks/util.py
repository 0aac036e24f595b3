"""Shared helpers for the benchmark harness.

The paper's absolute numbers come from a C++ engine on 2007 hardware; we
run a pure-Python engine, so every bench reports *shapes* -- growth
curves, ratios, crossovers -- next to the paper's qualitative claims.
Unit counts are scaled down (~10-20×) so the full suite finishes in CI
time; naive and indexed always share workloads, seeds, and tick counts.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time

from repro.env.table import EnvironmentTable
from repro.game.battle import BattleSimulation
from repro.game.units import unit_row


def tick_seconds(
    n_units: int,
    mode: str,
    *,
    ticks: int = 2,
    density: float = 0.01,
    seed: int = 0,
    formation: str = "uniform",
) -> float:
    """Mean wall-clock seconds per tick for one battle configuration."""
    sim = BattleSimulation(
        n_units,
        density=density,
        mode=mode,
        seed=seed,
        formation=formation,
    )
    start = time.perf_counter()
    sim.run(ticks)
    return (time.perf_counter() - start) / ticks


def make_battle_env(schema, n: int, grid: int, seed: int):
    """A deterministic battle-schema environment, distinct positions."""
    rng = random.Random(seed)
    env = EnvironmentTable(schema)
    taken = set()
    types = ("knight", "archer", "healer")
    for key in range(n):
        while True:
            x, y = rng.randrange(grid), rng.randrange(grid)
            if (x, y) not in taken:
                taken.add((x, y))
                break
        env.rows.append(
            unit_row(key, key % 2, types[key % 3], x, y, schema=schema)
        )
    return env


def evolve_battle_env(env, rate: float, grid: int, rng: random.Random):
    """New generation: exactly ``rate`` of the rows move one cell and
    lose 1 hp, everyone else holds still -- the controlled-churn
    workload shared by the maintenance and broadcast-volume sweeps."""
    rows = [dict(r) for r in env.rows]
    changed = rng.sample(range(len(rows)), max(1, int(rate * len(rows))))
    for i in changed:
        row = rows[i]
        row["posx"] = (row["posx"] + rng.choice((-1, 1))) % grid
        row["posy"] = (row["posy"] + rng.choice((-1, 1))) % grid
        row["health"] = max(row["health"] - 1, 1)
    out = EnvironmentTable(env.schema)
    out.rows.extend(rows)
    return out


def fmt_table(headers: list[str], rows: list[list[object]]) -> str:
    """Fixed-width table rendering for bench output."""
    cells = [headers] + [
        [f"{v:.4f}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def write_bench_json(path: str, bench: str, payload: dict) -> None:
    """Write a machine-readable bench result next to the table output.

    Every bench emits a ``BENCH_<name>.json`` so the perf trajectory of
    the repo can be tracked across commits (CI uploads these as
    artifacts).  The envelope pins down the machine context that
    absolute timings depend on; consumers should compare *shapes and
    ratios* across runs on unlike hardware, exactly as the printed
    tables advise.
    """
    envelope = {
        "bench": bench,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        **payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"\nwrote {path}")


def emit(capsys, title: str, body: str) -> None:
    """Print a bench table so it survives pytest's capture."""
    text = f"\n=== {title} ===\n{body}\n"
    if capsys is not None:
        with capsys.disabled():
            print(text)
    else:  # pragma: no cover
        print(text)
