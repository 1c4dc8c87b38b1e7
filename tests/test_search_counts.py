"""scripts/search_counts.py prints the counters of the solves it runs.

Two queries, max2 and double_pbe, are in both the enum corpus and
benchmarks/; each printed row must be the `cegis_solve` result of that
query, with the cost of its program, and each total the sum of its rows.
"""

import subprocess
import sys
import time
from pathlib import Path

from synthsel.enumerator import cegis_solve
from synthsel.sygus import grammar_for_query, parse_query
from synthsel.verify import Verifier

from reference import NormalForms

ROOT = Path(__file__).resolve().parent.parent


def test_search_counts_prints_each_solves_counters_and_their_totals():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "search_counts.py"), "--only", "max2",
         "double_pbe", "--src", str(ROOT / "src")],
        check=True, capture_output=True, text=True, timeout=120).stdout
    blocks = out.strip().split("\n\n")[1:]
    assert [b.splitlines()[0] for b in blocks] == ["enum-corpus seed 1: 2 solves",
                                                   "benchmarks/: 2 solves"]
    expected = {}
    for name in ("max2", "double_pbe"):
        q = parse_query((ROOT / "benchmarks" / f"{name}.sl").read_text())
        g = grammar_for_query(q)
        res = cegis_solve(q, g, time.monotonic() + 60, Verifier())
        cost = NormalForms(g).cost_of(res.candidate.body, g.start)
        expected[name] = ["solved", res.iterations, res.dequeued_complete,
                          res.expansions, res.pruned, cost]
    for block in blocks:
        _, header, *rows, total = block.splitlines()
        assert header.split() == ["query", "status", "iterations", "candidates",
                                  "expansions", "pruned", "cost"]
        got = {}
        for row in rows:
            name, status, *numbers, cost = row.split()
            got[name] = [status, *(int(n.replace(",", "")) for n in numbers), float(cost)]
        assert got == expected
        assert total.split() == ["total", *(f"{sum(r[i] for r in got.values()):,}"
                                            for i in range(1, 5))]
