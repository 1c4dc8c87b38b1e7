"""Command-line entry point.

    synthsel solve FILE [flags]       solve one SyGuS file
    synthsel run CORPUS_DIR [flags]   online run over a corpus of .sl files
    synthsel rescore REPORT --reward  re-score a stored report

Exit codes: 0 solved / success, 1 unsolved, 2 usage or input error, 3 run
stopped by an error (its partial report is written).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

from .bandit import REWARDS
from .config import RunConfig
from .llm import HttpBackend, ModelRouter, RecordingBackend, ReplayBackend
from .orchestrator import (
    SolverDeployer,
    new_state,
    run_corpus,
    run_corpus_multi,
    solve_query,
)
from .reports import load_report, rescore, write_run_outputs
from .sygus import SygusError, parse_query, print_define_fun
from .verify import Verifier

log = logging.getLogger(__name__)

EXIT_SOLVED = 0
EXIT_UNSOLVED = 1
EXIT_USAGE = 2
EXIT_ABORTED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthsel",
        description="Online solver selection for syntax-guided synthesis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file mirroring RunConfig")
        p.add_argument("--selector",
                       help="single | double | linear-single | linear-double "
                            "| fixed:<solver-id>")
        p.add_argument("--reward", choices=REWARDS)
        p.add_argument("--time-budget", type=float, dest="time_budget")
        p.add_argument("--cost-budget", type=float, dest="cost_budget")
        p.add_argument("--k", type=int)
        p.add_argument("--delta1", type=float)
        p.add_argument("--delta2", type=float)
        p.add_argument("--state", help="JSON-lines learning-state file")
        p.add_argument("--fixtures", help="replay fixture file")
        p.add_argument("--backend", choices=("replay", "http", "record"))
        p.add_argument("--smt-cmd", dest="smt_cmd",
                       help="external SMT solver command line")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory for reports")

    p_solve = sub.add_parser("solve", help="solve a single SyGuS file")
    p_solve.add_argument("path")
    add_common(p_solve)

    p_run = sub.add_parser("run", help="run a corpus of .sl files")
    p_run.add_argument("corpus")
    p_run.add_argument("--runs", type=int,
                       help="number of shuffled runs (mean/stddev reported)")
    add_common(p_run)

    p_rescore = sub.add_parser("rescore",
                               help="re-score a report under another reward")
    p_rescore.add_argument("report")
    p_rescore.add_argument("--reward", required=True, choices=REWARDS)
    p_rescore.add_argument("--out", help="write the re-scored summary here")

    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig.load(args.config) if args.config else RunConfig()
    overrides = {
        name: getattr(args, name, None)
        for name in ("selector", "reward", "time_budget", "cost_budget", "k",
                     "delta1", "delta2", "state", "fixtures", "backend",
                     "smt_cmd", "seed", "out", "runs")
    }
    return config.with_overrides(**overrides)


def make_deployer(config: RunConfig) -> SolverDeployer:
    verifier = Verifier(solver_command=config.smt_command())
    backend = None
    if any(m for m in config.models):
        if config.backend == "replay":
            if not config.fixtures:
                raise ValueError("replay backend needs --fixtures")
            backend = ReplayBackend(config.fixtures,
                                    strict=not config.tolerate_replay_miss)
        else:
            missing = [m.name for m in config.models if not m.endpoint]
            if missing:
                raise ValueError(f"{config.backend} backend needs an endpoint in "
                                 f"the config file for every model; none for "
                                 f"{', '.join(missing)}")
            backend = ModelRouter({
                m.name: HttpBackend(endpoint=m.endpoint, api_key_env=m.api_key_env,
                                    temperature=config.temperature)
                for m in config.models})
            if config.backend == "record":
                if not config.fixtures:
                    raise ValueError("record backend needs --fixtures")
                backend = RecordingBackend(backend, config.fixtures)
    return SolverDeployer(verifier=verifier, backend=backend)


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        config = resolve_config(args)
        deployer = make_deployer(config)
        state = new_state(config, config.seed)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.path, encoding="utf-8") as fh:
            query = parse_query(fh.read())
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SygusError as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        record = solve_query(query, args.path, config, state, deployer)
    except Exception as exc:
        log.exception("solve of %s stopped by an error", args.path)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    if config.state:
        state.store.save(config.state)
    if record.solved and record.outcomes[-1].candidate is not None:
        print(print_define_fun(record.outcomes[-1].candidate))
        return EXIT_SOLVED
    print("UNSOLVED")
    return EXIT_UNSOLVED


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config = resolve_config(args)
        deployer = make_deployer(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config.runs > 1 and config.state:
        # independent runs share no learning state, so the file would be
        # neither read nor written
        print("error: --runs above 1 cannot be combined with --state",
              file=sys.stderr)
        return EXIT_USAGE
    corpus_dir = Path(args.corpus)
    paths = sorted(str(p) for p in corpus_dir.rglob("*.sl"))
    if not paths:
        print(f"error: no .sl files under {corpus_dir}", file=sys.stderr)
        return EXIT_USAGE

    runs = config.runs
    summary = None
    out_dir = config.out or "synthsel-out"
    try:  # the state loads and the output directory exists before any query
        state = new_state(config, config.seed)
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if runs > 1:
            summary = run_corpus_multi(paths, config, config.seed, runs,
                                       deployer)
            report = summary.reports[0]
            print(f"runs: {runs}  solved: {summary.mean_solved:.1f} "
                  f"± {summary.std_solved:.1f} of {report.n_queries}")
        else:
            report = run_corpus(paths, config, config.seed, deployer, state=state)
            agg = report.aggregates()
            print(f"solved {agg['n_solved']}/{agg['n_queries']} "
                  f"({agg['pct_solved']:.1f}%)  par2 {agg['par2']:.1f}")
    except Exception as exc:
        partial = getattr(exc, "partial_report", None)
        if partial is None:
            raise
        log.exception("run stopped after %d queries", partial.n_queries)
        for name, path in write_run_outputs(out_dir, partial).items():
            print(f"wrote partial {name}: {path}")
        return EXIT_ABORTED
    written = write_run_outputs(out_dir, report, summary)
    for name, path in written.items():
        print(f"wrote {name}: {path}")
    return EXIT_SOLVED


def cmd_rescore(args: argparse.Namespace) -> int:
    try:
        report = load_report(args.report)
    # a wrong shape (a list for an object, null for a list) is a load error
    # too; json.JSONDecodeError is a ValueError
    except (OSError, KeyError, TypeError, AttributeError, ValueError) as exc:
        print(f"error: cannot load report {args.report}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = rescore(report, args.reward)
    text = json.dumps(result, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_SOLVED


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {"solve": cmd_solve, "run": cmd_run, "rescore": cmd_rescore}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
