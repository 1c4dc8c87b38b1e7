#!/usr/bin/env python3
"""Desk-scale selector experiment on the synthetic cluster corpus.

Builds the 60-query corpus and its mocked outcome matrix, then compares:
  - every fixed single solver (full budget per query),
  - the single- and double-layer k-NN selectors under each reward function,
  - the linear budget split,
  - the virtual best: per query, the best of the fixed-solver runs.

Writes a Table-2-style summary CSV plus the cumulative Par-2 curve of the
best selector run, and prints the summary.

Usage: python scripts/replay_experiment.py [--out DIR] [--runs N] [--seed S]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from synthsel.experiments import (
    build_outcome_matrix,
    experiment_config,
    write_cluster_corpus,
)
from synthsel.orchestrator import (
    MatrixDeployer,
    run_corpus,
    run_corpus_multi,
    virtual_best,
)
from synthsel.reports import (
    summary_row,
    write_cumulative_par2_csv,
    write_summary_csv,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="experiment-out")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=12)
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_dir = out_dir / "corpus"
    paths = write_cluster_corpus(corpus_dir)
    base = experiment_config()
    solvers = base.portfolio()
    matrix = build_outcome_matrix(paths, solvers)
    deployer = MatrixDeployer(matrix)

    # every single solver, full budget each query
    fixed = {solver: run_corpus(paths,
                                experiment_config(selector=f"fixed:{solver}"),
                                args.seed, deployer)
             for solver in solvers}
    finals = {}
    for solver, rep in fixed.items():
        for rec in rep.records:
            finals.setdefault(rec.query_id, {})[solver] = rec.outcomes[-1]
    vb = virtual_best(finals, "binary", base.time_budget)
    rows = [{
        "selector": "virtual-best", "reward": "binary",
        "pct_solved": round(100.0 * vb.solved / vb.total, 1),
        "n_solved": vb.solved, "par2": round(vb.par2, 1),
    }]

    best_selector_report = None
    for selector in ("single", "double", "linear-single", "linear-double"):
        for reward in ("binary", "time", "cost"):
            config = experiment_config(selector=selector, reward=reward)
            summary = run_corpus_multi(paths, config, args.seed, args.runs,
                                       deployer)
            rep = summary.reports[0]
            row = summary_row(rep, label=f"{selector} ({reward})")
            row["n_solved"] = (f"{summary.mean_solved:.1f}"
                               f"±{summary.std_solved:.1f}")
            row["pct_solved"] = round(100.0 * summary.mean_solved
                                      / rep.n_queries, 1)
            row["par2"] = round(float(np.mean(
                [r.aggregates()["par2"] for r in summary.reports])), 1)
            rows.append(row)
            if selector == "single" and reward == "binary":
                best_selector_report = rep

    rows.extend(summary_row(fixed[solver], label=str(solver))
                for solver in sorted(solvers, key=lambda s: -fixed[s].n_solved))

    write_summary_csv(out_dir / "summary.csv", rows)
    if best_selector_report is not None:
        write_cumulative_par2_csv(out_dir / "cumulative_par2.csv",
                                  best_selector_report)

    widths = (24, 9, 11, 11, 10)
    header = ("selector", "reward", "pct_solved", "n_solved", "par2")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(row.get(h, "")).ljust(w)
                        for h, w in zip(header, widths)))
    print(f"\nwrote {out_dir / 'summary.csv'}")
    print(f"wrote {out_dir / 'cumulative_par2.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
