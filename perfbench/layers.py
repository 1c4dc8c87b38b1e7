"""Where the traced run hooks into the program, and the per-layer metrics it
derives from the spans.

Only public functions are wrapped, by replacing the module attribute that
the caller looks up (orchestrator.featurize, enumerator.astar_synthesize,
both bindings of nearest_records, ...). Counts come from the values those
functions return, never from program internals.
"""

from __future__ import annotations

import importlib


from spans import Span, Tracer, self_times

# every per-layer metric the traced run reports, with its unit
METRICS = {
    "sygus.parse_ms_per_query": "ms",
    "sygus.grammar_ms_per_query": "ms",
    "featurize.ms_per_query": "ms",
    "bandit.rank_ms_per_query": "ms",
    "bandit.nearest_calls_per_query": "count",
    "bandit.records_scanned_per_query": "count",
    "bandit.store_load_s": "s",
    "bandit.store_save_s": "s",
    "bandit.store_records": "count",
    "bandit.self_share": "ratio",
    "budget.schedule_ms_per_query": "ms",
    "budget.self_share": "ratio",
    "enumerator.astar_self_share": "ratio",
    "enumerator.expansions_per_s": "1/s",
    "enumerator.candidates_per_s": "1/s",
    "enumerator.candidates_per_query": "count",
    "enumerator.cegis_iterations_per_query": "count",
    "enumerator.max3_phase_candidates_per_s": "1/s",
    "verify.self_share": "ratio",
    "verify.check_ms_per_call": "ms",
    "verify.calls_per_query": "count",
    "verify.valid_share": "ratio",
    "verify.bounded_valid_share": "ratio",
    "verify.sweep_points_per_s": "1/s",
    "llm.attempts_per_query": "count",
    "llm.input_tokens_per_query": "count",
    "llm.output_tokens_per_query": "count",
    "llm.render_ms_per_query": "ms",
    "llm.backend_ms_per_call": "ms",
    "llm.extract_ms_per_call": "ms",
    "llm.replay_misses": "count",
    "llm.self_share": "ratio",
    "orchestrator.self_ms_per_query": "ms",
    "orchestrator.deploy_share": "ratio",
    "reports.write_s": "s",
    "trace.overhead_share": "ratio",
}

QUERY_SPAN = "orchestrator.query"


def _sweep_points(verifier, query) -> int:
    """Points the internal checker evaluates on a Valid verdict: the full
    grid (when there are few enough universals) plus the random samples."""
    cfg = verifier.search_config
    sorts = [s for _, s in query.universals]
    grid = 0
    if sorts and len(sorts) <= cfg.max_grid_vars:
        grid = 1
        for s in sorts:
            if s.name == "Bool":
                grid *= 2
            elif s.name == "BitVec":
                grid *= min(1 << s.width, 2 * cfg.grid_bound + 1)
            else:
                grid *= 2 * cfg.grid_bound + 1
    return grid + cfg.random_samples


def _verdict(args, kwargs, r) -> dict:
    verifier, query = args[0], args[1]
    internal = r.provenance == "internal"
    return {"status": r.status, "bounded": r.bounded,
            "points": _sweep_points(verifier, query) if r.is_valid and internal else 0}


def install(tracer: Tracer, deployer) -> None:
    """Wrap every layer boundary the traced run measures."""
    orch = importlib.import_module("synthsel.orchestrator")
    enum = importlib.import_module("synthsel.enumerator")
    bandit = importlib.import_module("synthsel.bandit")
    budget = importlib.import_module("synthsel.budget")
    verify = importlib.import_module("synthsel.verify")
    llm_solve = importlib.import_module("synthsel.llm.solve")
    backends = importlib.import_module("synthsel.llm.backends")
    reports = importlib.import_module("synthsel.reports")

    def nearest(args, kwargs, r):
        return {"scanned": len(args[0].records), "returned": len(r)}

    tracer.patch(orch, "featurize", "featurize.featurize")
    tracer.patch(orch, "rank_single", "bandit.rank")
    tracer.patch(orch, "rank_double", "bandit.rank")
    tracer.patch(bandit, "nearest_records", "bandit.nearest", nearest)
    tracer.patch(budget, "nearest_records", "bandit.nearest", nearest)
    tracer.patch(bandit.BanditStore, "load", "bandit.store_load",
                 lambda a, k, r: {"records": len(r.records)}, static=True)
    tracer.patch(bandit.BanditStore, "save", "bandit.store_save",
                 lambda a, k, r: {"records": len(a[0].records)})
    tracer.patch(orch, "build_schedule", "budget.schedule")
    tracer.patch(orch, "linear_schedule", "budget.schedule")
    tracer.patch(orch, "grammar_for_query", "sygus.grammar")
    tracer.patch(orch, "cegis_solve", "enumerator.cegis",
                 lambda a, k, r: {"iterations": r.iterations})
    tracer.patch(enum, "astar_synthesize", "enumerator.astar",
                 lambda a, k, r: {"expansions": r.expansions,
                                  "candidates": r.dequeued_complete})
    tracer.patch(verify.Verifier, "check", "verify.check", _verdict)
    tracer.patch(orch, "solve_with_llm", "llm.solve",
                 lambda a, k, r: {"attempts": r.attempts,
                                  "input_tokens": r.transcript.input_tokens,
                                  "output_tokens": r.transcript.output_tokens})
    tracer.patch(llm_solve, "render_initial_prompt", "llm.render")
    tracer.patch(llm_solve, "extract_candidate", "llm.extract")
    tracer.patch(backends.ReplayBackend, "complete", "llm.backend")
    tracer.patch(reports, "write_run_outputs", "reports.write")
    tracer.patch(type(deployer), "deploy", "orchestrator.deploy")


def metrics(spans: list[Span], n_passes: int, overhead_share: float,
            max3_candidates_per_s: float, store_records: float) -> dict[str, float]:
    """Per-layer metrics over the spans of the traced passes."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name: str) -> float:
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def attr_sum(name: str, key: str) -> float:
        return sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, ()))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    n = count(QUERY_SPAN)
    tq = total(QUERY_SPAN)
    shares = layer_shares(spans)
    checks = [spans[i] for i in by_name.get("verify.check", ())]
    valid = [s for s in checks if s.attrs.get("status") == "valid"]
    swept = [s for s in valid if s.attrs.get("points")]
    astar_time = total("enumerator.astar")
    ms = 1000.0
    return {
        "sygus.parse_ms_per_query": ratio(total("sygus.parse") * ms, n),
        "sygus.grammar_ms_per_query": ratio(total("sygus.grammar") * ms, n),
        "featurize.ms_per_query": ratio(total("featurize.featurize") * ms, n),
        "bandit.rank_ms_per_query": ratio(total("bandit.rank") * ms, n),
        "bandit.nearest_calls_per_query": ratio(count("bandit.nearest"), n),
        "bandit.records_scanned_per_query": ratio(attr_sum("bandit.nearest", "scanned"), n),
        "bandit.store_load_s": ratio(total("bandit.store_load"), n_passes),
        "bandit.store_save_s": ratio(total("bandit.store_save"), n_passes),
        "bandit.store_records": store_records,
        "bandit.self_share": shares.get("bandit", 0.0),
        "budget.schedule_ms_per_query": ratio(total("budget.schedule") * ms, n),
        "budget.self_share": shares.get("budget", 0.0),
        "enumerator.astar_self_share": ratio(
            sum(own[i] for i in by_name.get("enumerator.astar", ())), tq),
        "enumerator.expansions_per_s": ratio(attr_sum("enumerator.astar", "expansions"), astar_time),
        "enumerator.candidates_per_s": ratio(attr_sum("enumerator.astar", "candidates"), astar_time),
        "enumerator.candidates_per_query": ratio(attr_sum("enumerator.astar", "candidates"), n),
        "enumerator.cegis_iterations_per_query": ratio(attr_sum("enumerator.cegis", "iterations"), n),
        "enumerator.max3_phase_candidates_per_s": max3_candidates_per_s,
        "verify.self_share": shares.get("verify", 0.0),
        "verify.check_ms_per_call": ratio(total("verify.check") * ms, len(checks)),
        "verify.calls_per_query": ratio(len(checks), n),
        "verify.valid_share": ratio(len(valid), len(checks)),
        "verify.bounded_valid_share": ratio(sum(1 for s in valid if s.attrs.get("bounded")), len(valid)),
        "verify.sweep_points_per_s": ratio(sum(s.attrs["points"] for s in swept),
                                           sum(s.duration for s in swept)),
        "llm.attempts_per_query": ratio(attr_sum("llm.solve", "attempts"), n),
        "llm.input_tokens_per_query": ratio(attr_sum("llm.solve", "input_tokens"), n),
        "llm.output_tokens_per_query": ratio(attr_sum("llm.solve", "output_tokens"), n),
        "llm.render_ms_per_query": ratio(total("llm.render") * ms, n),
        "llm.backend_ms_per_call": ratio(total("llm.backend") * ms, count("llm.backend")),
        "llm.extract_ms_per_call": ratio(total("llm.extract") * ms, count("llm.extract")),
        "llm.replay_misses": float(sum(1 for i in by_name.get("llm.backend", ())
                                       if spans[i].attrs.get("error") == "ReplayMissError")),
        "llm.self_share": shares.get("llm", 0.0),
        "orchestrator.self_ms_per_query": ratio(
            sum(own[i] for i in by_name.get(QUERY_SPAN, ())) * ms, n),
        "orchestrator.deploy_share": ratio(total("orchestrator.deploy"), tq),
        "reports.write_s": ratio(total("reports.write"), n_passes),
        "trace.overhead_share": overhead_share,
    }


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Self time of each layer inside queries, as a share of query time."""
    own = self_times(spans)
    inside = [False] * len(spans)
    shares: dict[str, float] = {}
    for i, s in enumerate(spans):
        # a parent always precedes its children in the list
        inside[i] = s.name == QUERY_SPAN or (s.parent >= 0 and inside[s.parent])
        if inside[i]:
            layer = s.name.split(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + own[i]
    tq = sum(s.duration for s in spans if s.name == QUERY_SPAN)
    if not tq:
        return {}
    return {k: v / tq for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}

