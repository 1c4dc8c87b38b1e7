#!/usr/bin/env python3
"""The benchmark's trajectory, read from the committed BENCH_pr<N>.json files.

    python3 scripts/trajectory.py

For every workload, prints one table of its end-to-end metrics (those that
BENCHMARK.json names under `end_to_end`): a row per file, seed and side, in
the order of N in BENCH_pr<N>.json, each value the median the file states
over its runs. It reads every BENCH_pr<N>.json at the root of the
checkout, in two schemas: medians keyed by seed, for a file whose runs are
all of the one workload its `benchmark` command names (BENCH_pr19.json),
and medians keyed by workload, then seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_files() -> list[Path]:
    """Every committed BENCH_pr<N>.json, in the order of N."""
    return sorted(ROOT.glob("BENCH_pr*.json"),
                  key=lambda path: int(path.stem.removeprefix("BENCH_pr")))


def medians_by_workload(bench: dict) -> dict:
    """The file's medians keyed by workload, then seed, then side."""
    medians = bench["medians"]
    if all(key.isdigit() for key in medians):
        return {bench["benchmark"].split("--workload ")[1].split()[0]: medians}
    return medians


def trajectory(paths: list[Path], metrics: list[str]) -> str:
    rows: dict[str, list[list[str]]] = {}
    for path in paths:
        bench = json.loads(path.read_text(encoding="utf-8"))
        for workload, seeds in medians_by_workload(bench).items():
            for seed, sides in seeds.items():
                for side, values in sides.items():
                    rows.setdefault(workload, []).append(
                        [path.stem.removeprefix("BENCH_"), seed, side]
                        + [f"{values[m]:.4g}" if m in values else "-" for m in metrics])
    header = ["file", "seed", "side", *metrics]
    blocks = []
    for workload, table in rows.items():
        widths = [max(len(row[i]) for row in [header, *table]) for i in range(len(header))]
        lines = [workload]
        for row in [header, *table]:
            lines.append("  ".join(cell.ljust(w) if i < 3 else cell.rjust(w)
                                   for i, (cell, w) in enumerate(zip(row, widths))).rstrip())
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(trajectory(bench_files(), [m["name"] for m in benchmark["end_to_end"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
