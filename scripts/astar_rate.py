#!/usr/bin/env python3
"""The A* phase's own rate on max3, over a fixed number of pops.

    python3 scripts/astar_rate.py [--runs 5] [--src DIR]

Runs one A* synthesis phase of benchmarks/max3.sl against perfbench's seven
MAX3_COUNTEREXAMPLES, stopped by `EnumeratorConfig(max_frontier=CAP)`
instead of a deadline, so every run makes the same pops and only their
speed varies, and readings of two checkouts count the same pops. (perfbench's `enumerator.max3_phase_candidates_per_s` cuts the
same phase off after 2 s, and the phase alternates stretches that only
expand with stretches that only check programs, so where the cutoff falls
sets its reading.) Prints the pops of one run and, over --runs runs, the
median and range of candidates/s and expansions/s. --src names the synthsel
sources to time, by default this checkout's src/, so one copy of the script
times another checkout too.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP = 300_000  # 56,081 expansions and 148,580 candidates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import inputs
    import synthsel
    from synthsel.enumerator import (EnumeratorConfig, Frontier, SearchStatus,
                                     astar_synthesize)
    from synthsel.sygus import grammar_for_query, parse_query

    query = parse_query((ROOT / "benchmarks" / "max3.sl").read_text())
    grammar = grammar_for_query(query)
    examples = list(inputs.MAX3_COUNTEREXAMPLES)
    config = EnumeratorConfig(max_frontier=CAP)
    readings, pops = [], set()
    for _ in range(args.runs):
        frontier = Frontier(grammar, query)
        started = time.perf_counter()
        result = astar_synthesize(grammar, examples, query, time.monotonic() + 3600,
                                  config, frontier)
        elapsed = time.perf_counter() - started
        if result.status is not SearchStatus.FRONTIER_CAP:
            raise SystemExit(f"astar_rate: the phase ended {result.status.value}, "
                             f"not at the cap of {CAP}")
        pops.add((result.expansions, result.dequeued_complete))
        readings.append((result.dequeued_complete / elapsed, result.expansions / elapsed))
    assert len(pops) == 1, f"runs made different pops: {pops}"
    (expansions, candidates), = pops
    print(f"max3 phase, cap {CAP}: {expansions} expansions, {candidates} candidates "
          f"per run, {args.runs} runs, {Path(synthsel.__file__).parent}")
    for name, values in (("candidates_per_s", [c for c, _ in readings]),
                         ("expansions_per_s", [e for _, e in readings])):
        print(f"{name}: median {statistics.median(values):,.0f} "
              f"(min {min(values):,.0f}, max {max(values):,.0f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
