#!/usr/bin/env python3
"""The A* phase's own rate on max3, over a fixed number of pops, or how far
it gets in a fixed time.

    python3 scripts/astar_rate.py [--runs 5] [--src DIR] [--seconds S]

Runs one A* synthesis phase of benchmarks/max3.sl against perfbench's seven
MAX3_COUNTEREXAMPLES, stopped by `EnumeratorConfig(max_frontier=CAP)`
instead of a deadline, so every run makes the same pops and only their
speed varies, and readings of two checkouts count the same pops. (perfbench's `enumerator.max3_phase_candidates_per_s` cuts the
same phase off after 2 s, and the phase alternates stretches that only
expand with stretches that only check programs, so where the cutoff falls
sets its reading.) Prints the pops of one run (expansions, candidates and
pruned pops; runs that disagree on any of them stop the script) and, over
--runs runs, the median and range of candidates/s and expansions/s. --src
names the synthsel sources to time, by default this checkout's src/, so one
copy of the script times another checkout too.

Pruned pops (equivalence reduction) are neither checked nor expanded, so a
fixed number of pops is less work on a checkout that prunes, and rates over
it do not compare like with like. With --seconds S each run instead stops at
a deadline S seconds after it starts (or at the default frontier cap, if
that comes first; the status says which), and the script prints per run and
as medians the highest priority popped (`Frontier.last_priority`, the cost
of the cheapest programs not yet popped), the pruned pops and the
expansions and candidates.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP = 300_000  # 47,749 expansions, 40,189 candidates and 41,742 pruned pops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--seconds", type=float,
                        help="read how far each run gets in this many seconds")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.seconds is not None and not args.seconds > 0:
        parser.error("--seconds must be > 0")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import inputs
    import synthsel
    from synthsel.enumerator import (EnumeratorConfig, Frontier, SearchStatus,
                                     astar_synthesize)
    from synthsel.sygus import grammar_for_query, parse_query

    query = parse_query((ROOT / "benchmarks" / "max3.sl").read_text())
    grammar = grammar_for_query(query)
    examples = list(inputs.MAX3_COUNTEREXAMPLES)
    if args.seconds is not None:
        return fixed_time(grammar, query, examples, args.seconds, args.runs)
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
        pops.add((result.expansions, result.dequeued_complete, getattr(result, "pruned", 0)))
        readings.append((result.dequeued_complete / elapsed, result.expansions / elapsed))
    assert len(pops) == 1, f"runs made different pops: {pops}"
    (expansions, candidates, pruned), = pops
    print(f"max3 phase, cap {CAP}: {expansions} expansions, {candidates} candidates, "
          f"{pruned} pruned pops per run, {args.runs} runs, {Path(synthsel.__file__).parent}")
    for name, values in (("candidates_per_s", [c for c, _ in readings]),
                         ("expansions_per_s", [e for _, e in readings])):
        print(f"{name}: median {statistics.median(values):,.0f} "
              f"(min {min(values):,.0f}, max {max(values):,.0f})")
    return 0


def fixed_time(grammar, query, examples, seconds: float, runs: int) -> int:
    import synthsel
    from synthsel.enumerator import Frontier, astar_synthesize

    keys = ("last_priority", "pruned", "expansions", "candidates")
    readings = []
    print(f"max3 phase, {seconds:g} s per run, {runs} runs, {Path(synthsel.__file__).parent}")
    for _ in range(runs):
        frontier = Frontier(grammar, query)
        result = astar_synthesize(grammar, examples, query, time.monotonic() + seconds,
                                  frontier=frontier)
        readings.append((frontier.last_priority, getattr(result, "pruned", 0),
                         result.expansions, result.dequeued_complete))
        print(f"{result.status.value}: " + ", ".join(
            f"{k} {v:,.0f}" for k, v in zip(keys, readings[-1])))
    print("median: " + ", ".join(f"{k} {statistics.median(r[i] for r in readings):,.0f}"
                                 for i, k in enumerate(keys)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
