#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as a trajectory file.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workloads enum-corpus \\
        --seeds 1 104729 --pairs 10 --out BENCH_pr21.json

Run it from a synthsel checkout. The parent side is the committed files of
--parent; the change side is this checkout's working tree as `git add -A`
would commit it: the tracked files with their uncommitted edits and the
untracked files that are not ignored, but no `__pycache__` or other ignored
output. Both are exported with `git archive` into a scratch directory (removed
at exit unless --work names one), so both sides start from fresh files alike,
and the repository's index is never touched. For every workload and seed it
runs `perfbench/run.py --seconds S --trace 0` on both sides --pairs times,
alternating which side runs first, and keeps from each run its last line (the
result), its digest line and its side's commit. The file holds every run and,
per workload, seed and side, the median of each metric over those runs. With
--append the new runs join those already in --out, which must compare the same
two sides, and every median is computed again.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"^digest \S+ seed=\d+: (\S+) ")
NOTE = ("src_tree is `git rev-parse <commit>:src` (for an uncommitted change, the "
        "tree its src/ would commit as); pairs alternate which side runs first; "
        "result is run.py's last output line; medians are keyed by workload, then seed")


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The files of `rev` (a commit or a tree), unpacked under `into`."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")


def working_tree(scratch: Path) -> str:
    """The tree id that the working tree would commit as with `git add -A`,
    found with a throwaway index so the real one is left alone."""
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "index"))
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env)


class Interrupted(Exception):
    """A signal that ends the series: SIGTERM, SIGHUP or SIGINT."""


def _interrupt(signum, frame):
    raise Interrupted(signal.Signals(signum).name)


def stop_on_signals() -> None:
    """Turn SIGTERM, SIGHUP and SIGINT into `Interrupted`, so the run under
    way is stopped before the script exits."""
    for signum in (signal.SIGTERM, signal.SIGHUP, signal.SIGINT):
        signal.signal(signum, _interrupt)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in its own session. If anything interrupts it, its
    whole process group (run.py and its worker) is killed before the
    exception goes on, so no run outlives the series or shares
    .perfbench-work/ with the next one."""
    with subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", f"{seconds:g}", "--trace", "0"],
            cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            raise
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: run.py failed in {checkout} ({workload}, seed "
                         f"{seed}), exit {proc.returncode}:\n{stderr[-2000:]}")
    lines = stdout.splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    digest = next(m.group(1) for m in map(DIGEST.match, lines) if m)
    return {"loadavg_at_start": env["loadavg_at_start"], "digest": digest,
            "result": json.loads(lines[-1]), "environment": env}


def medians(runs: list[dict]) -> dict:
    """Per workload, seed and side, the median of each metric over the runs."""
    groups: dict = {}
    for run in runs:
        side = (groups.setdefault(run["workload"], {}).setdefault(str(run["seed"]), {})
                .setdefault(run["side"], []))
        side.append(run["result"]["metrics"])
    return {workload: {seed: {side: {name: statistics.median(m[name]["value"] for m in ms)
                                     for name in ms[0]}
                              for side, ms in sides.items()}
                       for seed, sides in seeds.items()}
            for workload, seeds in groups.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--append", action="store_true",
                        help="add the runs to those already in --out")
    parser.add_argument("--change", default="", help="one line saying what the change is")
    parser.add_argument("--work", type=Path,
                        help="scratch directory for both sides' files (kept)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    stop_on_signals()

    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    dirty = bool(git("status", "--porcelain", "--", "src", "perfbench"))
    head = git("rev-parse", "HEAD")
    work = args.work or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        work.mkdir(parents=True, exist_ok=True)
        tree = working_tree(work)
        checkouts = {"parent": work / "parent", "change": work / "change"}
        for side, rev in (("parent", parent_commit), ("change", tree)):
            shutil.rmtree(checkouts[side], ignore_errors=True)
            checkouts[side].mkdir(parents=True)
            export(rev, checkouts[side])
        sides = {
            "parent": {"commit": parent_commit,
                       "src_tree": git("rev-parse", f"{parent_commit}:src")},
            "change": {"commit": head + (" with uncommitted changes" if dirty else ""),
                       "src_tree": git("rev-parse", f"{tree}:src")},
        }
        old = json.loads(args.out.read_text(encoding="utf-8")) if args.append else None
        if old is not None and old["sides"] != sides:
            raise SystemExit(f"bench_pairs: {args.out} compares other sides: {old['sides']}")
        runs = list(old["runs"]) if old else []
        env = None
        for workload in args.workloads:
            for seed in args.seeds:
                done = max((r["pair"] for r in runs
                            if (r["workload"], r["seed"]) == (workload, seed)), default=0)
                for pair in range(done + 1, done + args.pairs + 1):
                    order = ("parent", "change") if pair % 2 else ("change", "parent")
                    for side in order:
                        got = run_once(checkouts[side], workload, seed, args.seconds)
                        env = got.pop("environment")
                        runs.append({"workload": workload, "seed": seed, "pair": pair,
                                     "side": side, "commit": sides[side]["commit"],
                                     "ran_first": side == order[0], **got})
                        print(f"{workload} seed={seed} pair {pair} {side}: "
                              f"queries_per_s "
                              f"{got['result']['metrics']['queries_per_s']['value']:.2f} "
                              f"digest {got['digest'][:8]}", flush=True)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)

    machine = (old["machine"] if old else
               f"{platform.system()}, {env['nproc']} CPUs ({env['cpus_usable']} usable), "
               f"Python {env['python']}, numpy {env['numpy']}")
    out = {
        "benchmark": (f"python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                      f"--seconds {args.seconds:g} --trace 0"),
        "machine": machine,
        "change": args.change or (old or {}).get("change", ""),
        "sides": sides,
        "note": NOTE,
        "medians": medians(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Interrupted as exc:
        sys.exit(f"bench_pairs: stopped by {exc}")
