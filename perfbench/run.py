#!/usr/bin/env python3
"""The synthsel benchmark: one workload per call, end-to-end metrics or,
with --trace 1, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload enum-corpus --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the program from src/ and
writes only under .perfbench-work/. A call:

1. generates the workload's inputs from --seed (not timed);
2. sets the workload up in five fresh processes and takes the median
   set-up time;
3. runs the workload in one more fresh process -- one client, closed loop,
   whole passes over the query stream -- for --seconds;
4. checks every answer with the benchmark's own evaluator, every schedule
   against its invariants, and that all passes behaved the same;
5. prints the environment, the metrics with units and sample counts, the
   behaviour digest, and as its last line one JSON object.

See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import check
import inputs
import layers
from clock import NOMINAL_UNIT_S, time_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5

# end-to-end metrics with their units, in print order
END_TO_END = {
    "setup_s": "s",
    "query_latency_p50_ms": "ms",
    "query_latency_p90_ms": "ms",
    "queries_per_s": "1/s",
    "solved_share": "ratio",
    "par2_per_query_s": "s",
    "token_cost_per_query": "tokens",
    "peak_rss_mb": "MB",
}


def environment(seed: int) -> dict:
    import numpy

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown: {exc}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "commit": commit,
        "seed_role": {inputs.DEFAULT_SEED: "default",
                      inputs.HELD_OUT_SEED: "held-out"}.get(seed, "other"),
    }


def generate(workload: str, seed: int, work: Path) -> tuple[dict, dict]:
    """Write the workload's inputs; returns the worker spec and the
    generated queries by file stem."""
    spec: dict = {"workload": workload, "seed": seed}
    if workload == "select-stream":
        spec["paths"] = inputs.select_stream(seed, work / "queries")
        spec["pristine_state"] = str(work / "warm-state.jsonl")
        spec["state"] = str(work / "state.jsonl")
        inputs.warm_store(Path(spec["pristine_state"]), work / "history")
        shutil.copyfile(spec["pristine_state"], spec["state"])
        return spec, {}

    if workload == "enum-corpus":
        gen = inputs.enum_corpus(seed, ROOT / "benchmarks")
    else:
        gen = inputs.llm_corpus(seed)
    spec["paths"] = inputs.write_queries(work / "queries", gen)
    if workload == "llm-repair":
        from synthsel.llm import RecordingBackend
        from synthsel.orchestrator import SolverDeployer, run_corpus
        from synthsel.verify import Verifier

        spec["fixtures"] = str(work / "fixtures.jsonl")
        recorder = RecordingBackend(inputs.ScriptedModel(gen), spec["fixtures"])
        run_corpus(spec["paths"], inputs.run_config(workload), inputs.PROGRAM_SEED,
                   SolverDeployer(Verifier(), backend=recorder))
    return spec, {q.name: q for q in gen}


def worker(mode: str, spec_path: Path, timeout: float) -> str:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), mode, str(spec_path)],
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return proc.stdout


# ---------------------------------------------------------------------------
# Checks and the behaviour digest
# ---------------------------------------------------------------------------

def solver_name(solver: dict) -> str:
    if solver["kind"] == "enumerator":
        return "enumerator"
    return f"{solver['model']}-p{solver['style']}"


class Checker:
    """Re-checks the records of a pass's report.json. Answers are checked
    once per (query, answer) pair, since every pass repeats the queries."""

    def __init__(self, workload: str, spec: dict, queries: dict, seed: int) -> None:
        self.workload, self.queries, self.seed = workload, queries, seed
        self.matrix = None
        if workload == "select-stream":
            from synthsel.experiments import build_outcome_matrix

            portfolio = inputs.run_config(workload).portfolio()
            self.matrix = {
                qid: {str(s): cell for s, cell in row.items()}
                for qid, row in build_outcome_matrix(spec["paths"], portfolio).items()}
        self.answers: dict = {}

    def answer(self, stem: str, candidate: str):
        key = (stem, candidate)
        if key not in self.answers:
            self.answers[key] = check.check_answer(self.queries[stem].text, candidate, self.seed)
        return self.answers[key]

    def record(self, rec: dict) -> list[str]:
        stem = Path(rec["query_id"]).stem
        problems = []
        bad = check.check_schedule(rec["schedule"], inputs.TIME_BUDGET, inputs.COST_BUDGET)
        if bad:
            problems.append(f"{stem}: schedule: {bad}")
        if not rec["solved"]:
            return problems
        final = rec["outcomes"][-1]
        winner = solver_name(rec["winner"])
        if not final["solved"] or solver_name(final["solver"]) != winner:
            problems.append(f"{stem}: winner {winner} is not the solving deployment")
        if self.workload == "select-stream":
            if not self.matrix[rec["query_id"]][winner].solves:
                problems.append(f"{stem}: winner {winner} cannot solve it in the matrix")
            return problems
        if self.workload == "llm-repair":
            model, style = winner.rsplit("-p", 1)
            if not inputs.profile_solves(model, int(style), self.queries[stem].family):
                problems.append(f"{stem}: {winner} never answers it correctly")
        reason = self.answer(stem, final["candidate"])
        if reason:
            problems.append(f"{stem}: answer {final['candidate']} rejected: {reason}")
        return problems


def digest(records: list[dict]) -> str:
    """Hash of what the program decided, query by query: id, ranking and
    schedule, winner and printed answer. Wall times stay out of it."""
    h = hashlib.sha256()
    for rec in records:
        final = rec["outcomes"][-1] if rec["outcomes"] else {}
        h.update(json.dumps([
            Path(rec["query_id"]).stem,
            [[s, repr(float(t)), repr(float(c))] for s, t, c in rec["schedule"]],
            solver_name(rec["winner"]) if rec["winner"] else None,
            final.get("candidate") if rec["solved"] else None,
        ]).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class Tally:
    """What the checked passes add up to."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    reports: list = field(default_factory=list)  # (pass, aggregates) of untraced passes


def check_passes(result: dict, checker: Checker, n_queries: int) -> Tally:
    tally = Tally()
    for p in result["passes"]:
        name = Path(p["dir"]).name
        tally.attempted += n_queries
        if p["error"]:
            tally.failed += n_queries - p["completed"]
            tally.problems.append(f"{name}: {p['error']}")
            continue
        report = json.loads((Path(p["dir"]) / "report.json").read_text(encoding="utf-8"))
        records = report["records"]
        if len(records) != n_queries or p["completed"] != n_queries:
            tally.problems.append(f"{name}: {len(records)} records, {p['completed']} "
                                  f"timed queries, {n_queries} queries")
            tally.failed += n_queries - min(len(records), p["completed"])
        for rec in records:
            bad = checker.record(rec)
            tally.problems += bad
            tally.failed += bool(bad)
        tally.digests.append(digest(records))
        if not p["traced"]:
            tally.reports.append((p, report["aggregates"]))
    if len(set(tally.digests)) > 1:
        tally.problems.append(f"passes of one seed behaved differently: {sorted(set(tally.digests))}")
        tally.failed += n_queries
    return tally


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload: str, tally: Tally, setups: list,
               result: dict) -> tuple[dict, dict, dict]:
    """Raw values, scaled values and sample counts of the end-to-end metrics.
    Wall times of each pass are scaled by that pass's calibration."""
    raw_lat, lat = [], []
    queries = raw_wall = wall = raw_par2 = par2 = 0.0
    for p, agg in tally.reports:
        f = time_scale(p["calibration_s"])
        # the select-stream deployer runs on a simulated clock: Par-2 there
        # is not a wall time
        f_par2 = 1.0 if workload == "select-stream" else f
        raw_lat += p["latencies_ms"]
        lat += [t * f for t in p["latencies_ms"]]
        queries += agg["n_queries"]
        raw_wall += p["wall_s"]
        wall += p["wall_s"] * f
        raw_par2 += agg["par2"]
        par2 += agg["par2"] * f_par2
    solved = sum(a["n_solved"] for _, a in tally.reports)
    setup = statistics.median(x["setup_s"] for x in setups)
    setup_scale = time_scale([x["calibration_s"] for x in setups])
    shared = {
        "solved_share": solved / queries,
        "token_cost_per_query": statistics.median(a["avg_cost"] for _, a in tally.reports),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = {"setup_s": setup,
           "query_latency_p50_ms": percentile(raw_lat, 0.5)[0],
           "query_latency_p90_ms": percentile(raw_lat, 0.9)[0],
           "queries_per_s": queries / raw_wall,
           "par2_per_query_s": raw_par2 / queries, **shared}
    p90, beyond = percentile(lat, 0.9)
    scaled = {"setup_s": setup * setup_scale,
              "query_latency_p50_ms": percentile(lat, 0.5)[0],
              "query_latency_p90_ms": p90,
              "queries_per_s": queries / wall,
              "par2_per_query_s": par2 / queries, **shared}
    n = len(tally.reports)
    samples = {
        "setup_s": f"median of {len(setups)} set-ups, scaled by {setup_scale:.4f}",
        "query_latency_p50_ms": f"{len(lat)} queries",
        "query_latency_p90_ms": f"{len(lat)} queries, {beyond} beyond",
        "queries_per_s": f"{int(queries)} queries in {n} passes",
        "solved_share": f"{solved} of {int(queries)}",
        "par2_per_query_s": f"{int(queries)} queries in {n} passes",
        "token_cost_per_query": f"median of {n} passes",
        "peak_rss_mb": "1 process",
    }
    return raw, {k: scaled[k] for k in END_TO_END}, samples


def per_layer(result: dict, factor: float) -> tuple[dict, dict, dict]:
    """Raw values, scaled values and sample counts of the per-layer metrics."""
    raw, scaled = {}, {}
    for name, unit in layers.METRICS.items():
        raw[name] = value = result["layers"][name]
        if unit in ("ms", "s"):
            value *= factor
        elif unit == "1/s":
            value /= factor
        scaled[name] = value
    traced = sum(1 for p in result["passes"] if p["traced"])
    return raw, scaled, {name: f"{traced} traced passes" for name in raw}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "synthsel" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'synthsel'}; run it from "
              "the root of a synthsel checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    env = environment(args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    spec, queries = generate(args.workload, args.seed, work)
    spec.update(seconds=args.seconds, trace=bool(args.trace), out=str(work / "out"))
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    setups = [json.loads(worker("setup", spec_path, 120).splitlines()[-1])
              for _ in range(SETUP_REPEATS)]
    worker("run", spec_path, 3 * args.seconds + 90)
    result = json.loads((work / "out" / "result.json").read_text(encoding="utf-8"))

    n_queries = len(spec["paths"])
    tally = check_passes(result, Checker(args.workload, spec, queries, args.seed), n_queries)
    readings = [c for p in result["passes"] for c in p["calibration_s"]]
    factor = time_scale(readings)
    if args.trace:
        raw, scaled, samples = per_layer(result, factor)
        units = layers.METRICS
    else:
        raw, scaled, samples = end_to_end(args.workload, tally, setups, result)
        units = END_TO_END

    print(f"perfbench {args.workload} seed={args.seed} ({env['seed_role']}) "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env))
    print(f"calibration: {len(readings)} readings, median {statistics.median(readings) * 1000:.3f} ms "
          f"(min {min(readings) * 1000:.3f}, max {max(readings) * 1000:.3f}; nominal "
          f"{NOMINAL_UNIT_S * 1000:.3f}): run factor {factor:.4f}")
    if args.trace:
        shares = ", ".join(f"{k} {v:.3f}" for k, v in result["layer_shares"].items())
        print(f"self time by layer, share of query time: {shares}")
        if result["max3_phase"]:
            print("frozen max3 phase (raw): " + json.dumps(result["max3_phase"]))
    print(f"  {'metric':42s} {'value':>14s} {'unit':8s} {'raw':>12s}  samples")
    for name, value in scaled.items():
        print(f"  {name:42s} {value:>14.6g} {units[name]:8s} {raw[name]:>12.6g}  {samples[name]}")
    print(f"  {'error_share':42s} {tally.failed / tally.attempted:>14.6g} {'ratio':8s} "
          f"{'':12s}  {tally.failed} of {tally.attempted} queries attempted")
    print(f"digest {args.workload} seed={args.seed}: "
          f"{tally.digests[0] if tally.digests else 'none'} "
          f"({len(tally.digests)} passes, {len(set(tally.digests))} distinct)")
    for line in tally.problems[:20]:
        print("problem: " + line)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in scaled.items()}
    print(json.dumps({"correct": not tally.problems and bool(tally.digests),
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
