#!/usr/bin/env python3
"""The A* search's counters per CEGIS solve, on the enum corpus and benchmarks/.

    python3 scripts/search_counts.py [--seed 1] [--src DIR] [--seconds 10]
                                     [--only NAME ...]

Writes perfbench's seed-N enum corpus (`perfbench/inputs.enum_corpus`) to a
temporary directory and solves each query in it, then each query of
benchmarks/, with `cegis_solve` on its default or user grammar, the internal
verifier and a deadline --seconds after the solve starts. Prints per solve
its status, CEGIS iterations, the candidates checked, the expansions, the
pruned pops (equivalence reduction) and the returned program's cost (its A*
priority), then the totals over each set of solves. --only keeps the queries
of those names. --src names the synthsel sources to run, by default this
checkout's src/, so one copy of the script counts another checkout too.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEYS = ("iterations", "candidates", "expansions", "pruned")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="each solve's deadline")
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="count only the queries of these names")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import inputs
    import synthsel

    print(f"search counters, {Path(synthsel.__file__).parent}")
    with tempfile.TemporaryDirectory(prefix="search-counts-") as tmp:
        corpus = inputs.write_queries(Path(tmp), inputs.enum_corpus(args.seed,
                                                                    ROOT / "benchmarks"))
        sets = [(f"enum-corpus seed {args.seed}", [Path(p) for p in corpus]),
                ("benchmarks/", sorted((ROOT / "benchmarks").glob("*.sl")))]
        for title, paths in sets:
            paths = [p for p in paths if not args.only or p.stem in args.only]
            if paths:
                count(title, paths, args.seconds)
    return 0


def count(title: str, paths: list[Path], seconds: float) -> None:
    from synthsel import enumerator
    from synthsel.sygus import grammar_for_query, parse_query
    from synthsel.verify import Verifier

    frontiers = []

    class Recorded(enumerator.Frontier):
        """The solve's frontier, kept for its last popped priority."""

        def __init__(self, *args):
            super().__init__(*args)
            frontiers.append(self)

    totals = dict.fromkeys(KEYS, 0)
    print(f"\n{title}: {len(paths)} solves")
    print(f"{'query':<16} {'status':<14} " + " ".join(f"{k:>10}" for k in KEYS)
          + f" {'cost':>6}")
    for path in paths:
        query = parse_query(path.read_text(encoding="utf-8"))
        enumerator.Frontier = Recorded
        try:
            result = enumerator.cegis_solve(query, grammar_for_query(query),
                                            time.monotonic() + seconds, Verifier())
        finally:
            enumerator.Frontier = Recorded.__base__
        row = dict(zip(KEYS, (result.iterations, result.dequeued_complete,
                              result.expansions, getattr(result, "pruned", 0))))
        for k in KEYS:
            totals[k] += row[k]
        cost = (f"{frontiers[-1].last_priority:g}"
                if result.status is enumerator.SearchStatus.SOLVED else "-")
        print(f"{path.stem:<16} {result.status.value:<14} "
              + " ".join(f"{row[k]:>10,}" for k in KEYS) + f" {cost:>6}")
    print(f"{'total':<31} " + " ".join(f"{totals[k]:>10,}" for k in KEYS))


if __name__ == "__main__":
    sys.exit(main())
