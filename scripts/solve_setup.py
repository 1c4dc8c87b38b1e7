#!/usr/bin/env python3
"""The enumerator's set-up per solve, part by part, cold and warm.

    python3 scripts/solve_setup.py [--seed 1] [--src DIR] [--seconds 1]
                                   [--repeats 5] [--only NAME ...]

Writes perfbench's seed-N enum corpus (`perfbench/inputs.enum_corpus`) to a
temporary directory and solves each query in it, then each query of
benchmarks/, with `cegis_solve` on its default or user grammar, the internal
verifier and a deadline --seconds after the solve starts. Per solve it times
each part of the set-up:

- `grammar`: the grammar build, `grammar_for_query`;
- `frontier`: the `Frontier` build;
- `makers`: how many productions' makers were compiled (`compile_template`)
  and their time;
- `check`: the check set-up of a CEGIS phase (`_compiled_check` up to its
  first candidate), per phase, and the phases;
- `solve`: the whole grammar build and solve.

The first pass runs in this process with every cache empty (cold): run the
script in a fresh process for that reading. --repeats passes follow (warm),
of which each part's minimum is printed. The totals line sums each column
over the solves. --only keeps the queries of those names.
--src names the synthsel sources to run, by default this checkout's src/, so
one copy of the script reads another checkout too.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARTS = ("grammar", "frontier", "makers_n", "makers", "check", "phases", "solve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="each solve's deadline")
    parser.add_argument("--repeats", type=int, default=5, help="warm passes")
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="read only the queries of these names")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import inputs
    import synthsel

    print(f"enumerator set-up per solve (µs), {Path(synthsel.__file__).parent}")
    with tempfile.TemporaryDirectory(prefix="solve-setup-") as tmp:
        corpus = inputs.write_queries(Path(tmp), inputs.enum_corpus(args.seed,
                                                                    ROOT / "benchmarks"))
        sets = [(f"enum-corpus seed {args.seed}", [Path(p) for p in corpus]),
                ("benchmarks/", sorted((ROOT / "benchmarks").glob("*.sl")))]
        sets = [(title, [p for p in paths if not args.only or p.stem in args.only])
                for title, paths in sets]
        sets = [(title, paths) for title, paths in sets if paths]
        probe = Probe()
        cold = {title: [probe.solve(p, args.seconds) for p in paths] for title, paths in sets}
        warm: dict = {title: [[] for _ in paths] for title, paths in sets}
        for _ in range(args.repeats):
            for title, paths in sets:
                for reads, path in zip(warm[title], paths):
                    reads.append(probe.solve(path, args.seconds))
        for title, paths in sets:
            table(title, paths, cold[title], warm[title])
    return 0


class Probe:
    """Solves one query at a time with the enumerator's set-up timed: it
    wraps `Frontier`, `compile_template` and `_compiled_check` in the
    enumerator module."""

    def __init__(self):
        from synthsel import enumerator
        from synthsel.sygus import grammar_for_query, parse_query
        from synthsel.verify import Verifier

        self.enumerator, self.grammar_for_query = enumerator, grammar_for_query
        self.parse_query, self.verifier = parse_query, Verifier()
        self.read: dict = {}
        read = self.read

        class Timed(enumerator.Frontier):
            def __init__(self, *args):
                started = time.perf_counter()
                super().__init__(*args)
                read["frontier"] += time.perf_counter() - started

        def compiling(*args, **kwargs):
            started = time.perf_counter()
            try:
                return compile_template(*args, **kwargs)
            finally:
                read["makers"] += time.perf_counter() - started
                read["makers_n"] += 1

        def check_set_up(*args):
            started = time.perf_counter()
            try:
                return compiled_check(*args)
            finally:
                read["check"] += time.perf_counter() - started
                read["phases"] += 1

        compile_template, compiled_check = enumerator.compile_template, enumerator._compiled_check
        enumerator.Frontier, enumerator.compile_template = Timed, compiling
        enumerator._compiled_check = check_set_up

    def solve(self, path: Path, seconds: float) -> dict:
        query = self.parse_query(path.read_text(encoding="utf-8"))
        self.read.update(dict.fromkeys(PARTS, 0))
        started = time.perf_counter()
        grammar = self.grammar_for_query(query)
        self.read["grammar"] = time.perf_counter() - started
        self.enumerator.cegis_solve(query, grammar, time.monotonic() + seconds, self.verifier)
        self.read["solve"] = time.perf_counter() - started
        return dict(self.read)


def table(title: str, paths: list[Path], cold: list[dict], warm: list[list[dict]]) -> None:
    head = ("query", "grammar", "", "frontier", "", "makers", "", "makers_us", "",
            "check/ph", "", "phases", "solve", "")
    sub = ("", "cold", "warm", "cold", "warm", "cold", "warm", "cold", "warm", "cold",
           "warm", "cold", "cold", "warm")
    widths = (16, 7, 7, 8, 7, 6, 5, 9, 6, 8, 6, 6, 8, 8)
    print(f"\n{title}: {len(paths)} solves, warm = least of {len(warm[0])} passes")
    for row in (head, sub):
        print(" ".join(f"{c:<{w}}" if i == 0 else f"{c:>{w}}"
                       for i, (c, w) in enumerate(zip(row, widths))))
    totals = [0.0] * (len(widths) - 1)
    for path, c, reads in zip(paths, cold, warm):
        w = {k: min(r[k] for r in reads) for k in PARTS}
        per_phase = [c["check"] / max(c["phases"], 1), w["check"] / max(w["phases"], 1)]
        values = [c["grammar"], w["grammar"], c["frontier"], w["frontier"],
                  c["makers_n"], w["makers_n"], c["makers"], w["makers"], *per_phase,
                  c["phases"], c["solve"], w["solve"]]
        values = [v * 1e6 if i not in (4, 5, 10) else v for i, v in enumerate(values)]
        totals = [t + v for t, v in zip(totals, values)]
        print(" ".join([f"{path.stem:<16}"]
                       + [f"{v:>{wd},.0f}" for v, wd in zip(values, widths[1:])]))
    print(" ".join([f"{'total':<16}"]
                   + [f"{v:>{wd},.0f}" for v, wd in zip(totals, widths[1:])]))


if __name__ == "__main__":
    sys.exit(main())
