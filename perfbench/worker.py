"""Runs one workload in a process of its own, so that set-up time and peak
memory are those of a fresh process that does nothing else.

    python3 perfbench/worker.py setup SPEC   set up once, print the seconds
    python3 perfbench/worker.py run SPEC     run passes, write result.json

SPEC is the JSON file run.py writes. A pass is one run_corpus over the
workload's queries followed by write_run_outputs, exactly as the CLI's
`synthsel run` does it; passes repeat until the measuring time is used up.
With tracing, untraced and traced passes alternate and the traced ones
record spans (see layers.py).
"""

import time

SETUP_START = time.perf_counter()  # set-up time counts from here: imports first

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import synthsel.orchestrator as orchestrator  # noqa: E402
import synthsel.reports as reports  # noqa: E402
from synthsel.enumerator import astar_synthesize  # noqa: E402
from synthsel.experiments import build_outcome_matrix  # noqa: E402
from synthsel.llm import ReplayBackend  # noqa: E402
from synthsel.sygus import grammar_for_query, parse_query  # noqa: E402
from synthsel.verify import Verifier  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
from clock import calibrate  # noqa: E402
from spans import Tracer  # noqa: E402

# The frozen max3 phase: one A* synthesis phase against the seven
# counterexamples, cut off after this many seconds.
MAX3_PHASE_SECONDS = 2.0
# At least this many latency samples, so the p90 has ten beyond it.
MIN_SAMPLES = 100
# Calibration readings between queries (see clock.py): a short burst at most
# this often, so the readings cover the same stretches of time as the work.
CALIBRATE_EVERY_S = 0.5
CALIBRATION_BURST_S = 0.03


def make_deployer(spec: dict, config):
    if spec["workload"] == "select-stream":
        return orchestrator.MatrixDeployer(
            build_outcome_matrix(spec["paths"], config.portfolio()))
    backend = None
    if spec["workload"] == "llm-repair":
        backend = ReplayBackend(spec["fixtures"], strict=True)
    return orchestrator.SolverDeployer(Verifier(), backend=backend)


def setup(spec: dict) -> None:
    """What a user pays before the first query: imports (timed from the top
    of this file), deployer and fixture construction, state load."""
    config = inputs.run_config(spec["workload"], spec.get("state"))
    make_deployer(spec, config)
    orchestrator.new_state(config, inputs.PROGRAM_SEED)
    elapsed = time.perf_counter() - SETUP_START
    print(json.dumps({"setup_s": elapsed, "calibration_s": calibrate()}))


def max3_phase() -> dict:
    query = parse_query((HERE.parent / "benchmarks" / "max3.sl").read_text())
    grammar = grammar_for_query(query)
    started = time.perf_counter()
    result = astar_synthesize(grammar, list(inputs.MAX3_COUNTEREXAMPLES), query,
                              time.monotonic() + MAX3_PHASE_SECONDS)
    elapsed = time.perf_counter() - started
    return {"status": result.status.value, "seconds": elapsed,
            "expansions": result.expansions,
            "candidates": result.dequeued_complete,
            "candidates_per_s": result.dequeued_complete / elapsed}


def run(spec: dict) -> None:
    out = Path(spec["out"])
    config = inputs.run_config(spec["workload"], spec.get("state"))
    deployer = make_deployer(spec, config)
    tracer = Tracer()
    pending: dict = {}

    solve_query = orchestrator.solve_query

    def timed_query(query, query_id, *args, **kwargs):
        started = time.perf_counter()
        record = solve_query(query, query_id, *args, **kwargs)
        ended = time.perf_counter()
        pending["latencies"].append(ended - started)
        if not pending["traced"] and ended - pending["calibrated"] >= CALIBRATE_EVERY_S:
            # read the machine's speed between queries, outside the timing
            # (and outside the spans of traced passes)
            pending["calibration"].append(calibrate(CALIBRATION_BURST_S))
            pending["calibrated"] = time.perf_counter()
            pending["calibration_time"] += pending["calibrated"] - ended
        return record

    traced_query = tracer.wrap(layers.QUERY_SPAN, timed_query)
    traced_parse = tracer.wrap("sygus.parse", parse_query)

    def loader(path: str):
        if pending["first"] is None:
            pending["first"] = time.perf_counter()
        tracer.query = Path(path).stem
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return (traced_parse if pending["traced"] else parse_query)(text)

    passes = []
    begin = time.perf_counter()
    calibration = calibrate()
    while True:
        n = len(passes)
        traced = spec["trace"] and n % 2 == 1
        if spec.get("state"):
            # run_corpus saves over the state file: every pass starts warm
            shutil.copyfile(spec["pristine_state"], spec["state"])
        pending.update(first=None, latencies=[], traced=traced, calibration=[],
                       calibration_time=0.0, calibrated=time.perf_counter())
        first_span = len(tracer.spans)
        if traced:
            layers.install(tracer, deployer)
        orchestrator.solve_query = traced_query if traced else timed_query
        pass_dir = out / f"pass{n}"
        error, solved = None, 0
        try:
            report = orchestrator.run_corpus(spec["paths"], config, inputs.PROGRAM_SEED,
                                             deployer, loader=loader)
            reports.write_run_outputs(pass_dir, report)
            solved = report.n_solved
        except Exception as exc:  # the pass fails; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            ended = time.perf_counter()
            orchestrator.solve_query = solve_query
            tracer.restore()
        before, calibration = calibration, calibrate()
        loaded = sum(s.attrs.get("records", 0) for s in tracer.spans[first_span:]
                     if s.name == "bandit.store_load")
        passes.append({
            "traced": traced,
            "dir": str(pass_dir),
            "error": error,
            "completed": len(pending["latencies"]),
            "latencies_ms": [t * 1000.0 for t in pending["latencies"]],
            "wall_s": ended - (pending["first"] or ended) - pending["calibration_time"],
            "calibration_s": [before, *pending["calibration"], calibration],
            # records in the (model-layer) store when the pass ends: the ones
            # loaded plus one per solved query
            "store_records": loaded + solved,
        })
        elapsed = time.perf_counter() - begin
        samples = sum(len(p["latencies_ms"]) for p in passes if not p["traced"])
        enough = elapsed >= spec["seconds"]
        if spec["trace"]:
            enough = enough and len(passes) >= 4
        else:
            enough = enough and (samples >= MIN_SAMPLES or elapsed >= 3 * spec["seconds"])
        if enough:
            break

    result = {"passes": passes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if spec["trace"]:
        walls = {flag: [p["wall_s"] for p in passes if p["traced"] == flag and not p["error"]]
                 for flag in (False, True)}
        overhead = (statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
                    if walls[True] and walls[False] else 0.0)
        max3 = max3_phase() if spec["workload"] == "enum-corpus" else None
        traced_passes = [p for p in passes if p["traced"]]
        store_records = statistics.mean(p["store_records"] for p in traced_passes)
        result["layers"] = layers.metrics(
            tracer.spans, len(traced_passes), overhead,
            max3["candidates_per_s"] if max3 else 0.0, store_records)
        result["layer_shares"] = layers.layer_shares(tracer.spans)
        result["max3_phase"] = max3
        tracer.write(out / "spans.jsonl")
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")


def main() -> int:
    mode, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if mode == "setup":
        setup(spec)
    elif mode == "run":
        run(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
