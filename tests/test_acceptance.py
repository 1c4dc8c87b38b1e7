"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 7's second half (the three-input maximum through the enumerator) is
implemented faithfully but is marked known_infeasible: enumerating by
derivation cost must pop ~10^10 cheaper terms before the first correct
program, so no deadline near 100 s can succeed. The analysis lives in the
repository notes; the test stays red rather than being weakened.
Deselect it with: pytest -m "not known_infeasible".
"""

import csv
import importlib.util
import math
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from synthsel.bandit import (
    REWARDS,
    BanditStore,
    SolveRecord,
    SolverId,
    rank_single,
    reward_cost,
    reward_time,
)
from synthsel.budget import ExponentialFit, allocate_one, build_schedule, fit_exponential
from synthsel.enumerator import SearchStatus, cegis_solve
from synthsel.experiments import (
    build_outcome_matrix,
    experiment_config,
    write_cluster_corpus,
)
from synthsel.llm import (
    EMOTIONAL_PARAGRAPH,
    MAX_ATTEMPTS,
    ROLE_SENTENCE,
    RecordingBackend,
    ReplayBackend,
    STYLE_MATRIX,
    SolvedExample,
    render_initial_prompt,
    render_stage2_prompt,
    solve_with_llm,
)
from synthsel.orchestrator import (
    MatrixDeployer,
    QueryRecord,
    par2,
    placeholder_candidate,
    run_corpus,
    run_corpus_multi,
    virtual_best,
)
from synthsel.outcomes import DeploymentOutcome
from synthsel.sygus import grammar_for_query, parse_define_fun, parse_query
from synthsel.sygus.grammar import edge_cost, min_completion_costs
from synthsel.verify import Verifier, check_candidate_internal, evaluate, substitute_solution

from conftest import (
    MAX2_SOLUTION,
    MAX2_TEXT,
    MAX3_SOLUTION,
    PartialProgram,
    ScriptedBackend,
    heuristic,
    random_small_grammar,
)
from reference import knn_scores, solvable_queries, solver_solve_counts


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


# ---------------------------------------------------------------------------
# 1. reward formulas, exact
# ---------------------------------------------------------------------------

def test_criterion_01_reward_formulas_exact():
    assert abs(reward_time(50, 100, True) - 0.0625) <= 1e-12
    assert abs(reward_cost(25_000, 100_000, True) - 0.31640625) <= 1e-12
    assert reward_time(50, 100, False) == 0.0
    assert reward_cost(25_000, 100_000, False) == 0.0
    from synthsel.bandit import reward_binary

    assert reward_binary(False) == 0.0
    _report("1 reward formulas")


# ---------------------------------------------------------------------------
# 2. MLE recovery
# ---------------------------------------------------------------------------

def test_criterion_02_mle_recovery():
    rng = np.random.RandomState(20_260_810)
    true_rate = 0.02
    samples = rng.exponential(scale=1.0 / true_rate, size=10_000)
    fit = fit_exponential(samples.tolist())
    assert abs(fit.rate - true_rate) <= 0.05 * true_rate
    _report("2 MLE recovery")


# ---------------------------------------------------------------------------
# 3. allocation tail bound
# ---------------------------------------------------------------------------

def test_criterion_03_tail_bound():
    rng = random.Random(3)
    for _ in range(1000):
        rate = 10 ** rng.uniform(-3, 2)
        budget = 10 ** rng.uniform(-1, 5)
        delta = rng.uniform(0.001, 0.999)
        a = allocate_one(ExponentialFit(rate=rate, n=1), budget, delta)
        assert 0.0 <= a <= budget
        assert math.exp(-rate * a) - math.exp(-rate * budget) <= delta + 1e-9
    _report("3 allocation tail bound")


# ---------------------------------------------------------------------------
# 4. schedule invariants
# ---------------------------------------------------------------------------

def test_criterion_04_schedule_invariants():
    rng = random.Random(4)
    solvers = [SolverId.enumerator()] + [
        SolverId.llm(m, s) for m in ("ga", "lb") for s in range(1, 7)]
    for trial in range(500):
        store = BanditStore(seed=trial)
        for _ in range(rng.randrange(0, 60)):
            store.append(SolveRecord(
                (rng.uniform(-4, 4), rng.uniform(-4, 4)),
                rng.choice(solvers), rng.random(),
                rng.uniform(0.01, 80.0), rng.uniform(0.1, 9_000.0)))
        ranking = rng.sample(solvers, k=rng.randrange(1, 9))
        T = rng.uniform(5.0, 300.0)
        C = rng.uniform(50.0, 120_000.0)
        sched = build_schedule(ranking, store,
                               (rng.uniform(-4, 4), rng.uniform(-4, 4)),
                               15, T, C)
        total_time = sum(e.time for e in sched)
        total_cost = sum(e.cost for e in sched)
        assert total_time <= T + 1e-6
        assert total_cost <= C + 1e-6
        if any(e.cost > 0 for e in sched):
            assert total_cost == pytest.approx(C)  # leftover-to-last
        for e in sched:
            assert e.time >= 0.0 and e.cost >= 0.0
            if e.cost == 0.0:
                assert e.time == 0.0
    _report("4 schedule invariants")


# ---------------------------------------------------------------------------
# 5. bandit oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_05_bandit_oracle_equivalence():
    rng = random.Random(5)
    pool = [SolverId.enumerator()] + [
        SolverId.llm(m, s) for m in ("ga", "lb") for s in range(1, 7)]
    for trial in range(200):
        solvers = rng.sample(pool, k=rng.randrange(2, 9))
        store = BanditStore(seed=trial)
        for _ in range(rng.randrange(0, 51)):
            store.append(SolveRecord(
                (rng.uniform(-4, 4), rng.uniform(-4, 4)),
                rng.choice(solvers), rng.random(),
                rng.uniform(0.0, 10.0), rng.uniform(0.0, 100.0)))
        q = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        k = rng.randrange(1, 20)

        def dist(r):
            return math.hypot(r.features[0] - q[0], r.features[1] - q[1])

        nearest = sorted(range(len(store.records)),
                         key=lambda idx: (dist(store.records[idx]), idx))[:k]
        oracle: dict = {}
        for idx in nearest:
            r = store.records[idx]
            oracle[r.solver] = oracle.get(r.solver, 0.0) + r.reward

        got = knn_scores(store, q, k)
        assert got == pytest.approx(oracle)

        order = rank_single(store, q, k, solvers)
        assert sorted(order, key=str) == sorted(solvers, key=str)
        scored = [s for s in order if s in oracle]
        assert all(oracle[a] >= oracle[b] - 1e-12
                   for a, b in zip(scored, scored[1:]))
    _report("5 bandit oracle equivalence")


# ---------------------------------------------------------------------------
# 6. bandit convergence on a two-cluster stream
# ---------------------------------------------------------------------------

def test_criterion_06_bandit_convergence():
    specialist = {0: SolverId.llm("ga", 1), 1: SolverId.llm("lb", 1)}
    decoys = [SolverId.llm("ga", s) for s in range(2, 5)] + \
             [SolverId.llm("lb", s) for s in range(2, 5)]
    solvers = list(specialist.values()) + decoys
    centers = {0: (0.0, 0.0), 1: (10.0, 10.0)}

    accuracies = []
    for seed in range(10):
        rng = random.Random(seed)
        store = BanditStore(seed=seed)
        hits = 0
        total = 0
        for step in range(200):
            cluster = rng.randrange(2)
            fv = (centers[cluster][0] + rng.gauss(0, 0.5),
                  centers[cluster][1] + rng.gauss(0, 0.5))
            order = rank_single(store, fv, 15, solvers)
            if step >= 150:
                total += 1
                if order[0] == specialist[cluster]:
                    hits += 1
            # deploy in order until the cluster's specialist solves
            for s in order:
                if s == specialist[cluster]:
                    store.append(SolveRecord(fv, s, 1.0, 1.0, 1.0))
                    break
        accuracies.append(hits / total)
    assert sum(accuracies) / len(accuracies) >= 0.90
    _report("6 bandit convergence")


# ---------------------------------------------------------------------------
# 7. enumerator end-to-end
# ---------------------------------------------------------------------------

def test_criterion_07a_enumerator_max_of_2(max2_query):
    verifier = Verifier()
    grammar = grammar_for_query(max2_query)
    start = time.monotonic()
    result = cegis_solve(max2_query, grammar, start + 100.0, verifier)
    elapsed = time.monotonic() - start
    assert result.status is SearchStatus.SOLVED
    assert elapsed <= 100.0
    verdict = verifier.check(max2_query, result.candidate)
    assert verdict.is_valid
    _report(f"7a enumerator max-of-2 ({elapsed:.2f}s)")


@pytest.mark.known_infeasible
def test_criterion_07b_enumerator_max_of_3(max3_query):
    # Faithful statement of the criterion. The search space below the first
    # correct program holds ~7.6e10 complete terms (see the notes ledger), so
    # this cannot finish inside the stated wall-clock bound; the resource caps
    # surface that as a timeout and the assertion stays honestly red.
    verifier = Verifier()
    grammar = grammar_for_query(max3_query)
    start = time.monotonic()
    result = cegis_solve(max3_query, grammar, start + 100.0, verifier)
    elapsed = time.monotonic() - start
    assert elapsed <= 110.0
    assert result.status is SearchStatus.SOLVED, (
        "the A* enumerator cannot reach a correct three-input maximum within "
        f"the budget (status {result.status.value} after {elapsed:.0f}s); "
        "cost-ordered enumeration has ~7.6e10 cheaper terms to pop first")
    verdict = verifier.check(max3_query, result.candidate)
    assert verdict.is_valid
    _report("7b enumerator max-of-3")


# ---------------------------------------------------------------------------
# 8. A* heuristic admissibility
# ---------------------------------------------------------------------------

def _brute_min_completion(grammar, nt, depth, memo):
    if depth <= 0:
        return math.inf
    key = (nt, depth)
    if key in memo:
        return memo[key]
    best = math.inf
    base = edge_cost(nt, grammar)
    for p in grammar.productions[nt]:
        total = base
        for h in p.holes:
            total += _brute_min_completion(grammar, h, depth - 1, memo)
        best = min(best, total)
    memo[key] = best
    return best


def test_criterion_08_astar_admissibility():
    rng = random.Random(8)
    for _ in range(20):
        g = random_small_grammar(rng)
        mc = min_completion_costs(g)
        frontier = [PartialProgram((), (g.start,), 0.0)]
        for _ in range(3):
            nxt = []
            for state in frontier:
                if not state.pending:
                    continue
                nt = state.pending[0]
                for i, p in enumerate(g.productions[nt]):
                    nxt.append(PartialProgram(
                        state.choices + (i,),
                        p.holes + state.pending[1:],
                        state.cost + edge_cost(nt, g)))
            frontier = nxt
            memo: dict = {}
            for state in frontier:
                h = heuristic(state, g, mc)
                true_min = sum(_brute_min_completion(g, nt, 10, memo)
                               for nt in state.pending)
                assert h <= true_min + 1e-9
    _report("8 A* admissibility")


# ---------------------------------------------------------------------------
# 9. verification correctness
# ---------------------------------------------------------------------------

def test_criterion_09_verification(max3_query):
    projection = parse_define_fun(
        "(define-fun f ((v0 Int) (v1 Int) (v2 Int)) Int v0)")
    res = check_candidate_internal(max3_query, projection)
    assert res.is_counterexample
    ce = res.assignment_dict()
    phi = substitute_solution(max3_query, projection)
    assert evaluate(phi, ce) is False  # re-evaluated, falsifies a constraint

    correct = parse_define_fun(MAX3_SOLUTION)
    assert check_candidate_internal(max3_query, correct).is_valid
    _report("9 verification correctness")


# ---------------------------------------------------------------------------
# 10. prompt fidelity to the style matrix
# ---------------------------------------------------------------------------

def test_criterion_10_prompt_fidelity(max3_query):
    pool = [SolvedExample(f"(problem {i})", f"(define-fun h{i} () Int {i})",
                          "LIA") for i in range(6)]
    for index, style in STYLE_MATRIX.items():
        msgs = render_initial_prompt(max3_query, style, pool)
        body = "\n\n".join(m.content for m in msgs)
        if style.higher_resource_pl:
            body2 = render_stage2_prompt(style).content
        else:
            body2 = ""

        assert (ROLE_SENTENCE in body) == style.roles, index
        assert (EMOTIONAL_PARAGRAPH in body) == style.emotional_stimuli, index
        assert ("with Lisp" in body) == style.higher_resource_pl, index
        assert ("Start the function with `(define-fun`" in body2) \
            == style.higher_resource_pl, index
        assert ("is greater than or equal to" in body) \
            == style.natural_language, index
        few_shot_count = body.count("Example ")
        assert few_shot_count == (3 if style.few_shot else 0), index
    _report("10 prompt fidelity")


# ---------------------------------------------------------------------------
# 11. repair-loop bound through replay fixtures
# ---------------------------------------------------------------------------

WRONG_MAX2 = "(define-fun f ((v0 Int) (v1 Int)) Int v0)"


def _record_fixture(tmp_path, query, responses, name):
    fixture = tmp_path / name
    scripted = ScriptedBackend(responses)
    recorder = RecordingBackend(scripted, fixture)
    solve_with_llm(query, SolverId.llm("m", 4), 60.0, 1e9,
                   backend=recorder, verifier=Verifier())
    return fixture


def test_criterion_11_repair_loop_bound(tmp_path, max2_query):
    fixture = _record_fixture(tmp_path, max2_query, [WRONG_MAX2] * 16,
                              "sixteen_wrong.jsonl")
    result = solve_with_llm(max2_query, SolverId.llm("m", 4), 60.0, 1e9,
                            backend=ReplayBackend(fixture),
                            verifier=Verifier())
    assert not result.outcome.solved
    assert result.attempts == 16 == MAX_ATTEMPTS
    assert result.transcript.assistant_count == 16

    fixture2 = _record_fixture(tmp_path, max2_query,
                               [WRONG_MAX2, MAX2_SOLUTION],
                               "wrong_then_right.jsonl")
    result2 = solve_with_llm(max2_query, SolverId.llm("m", 4), 60.0, 1e9,
                             backend=ReplayBackend(fixture2),
                             verifier=Verifier())
    assert result2.outcome.solved
    assert result2.attempts == 2
    feedback = [m.content for m in result2.transcript.messages
                if m.role == "user" and "incorrect" in m.content]
    assert len(feedback) == 1 and "On inputs" in feedback[0]
    _report("11 repair-loop bound")


# ---------------------------------------------------------------------------
# 12. end-to-end replay experiment
# ---------------------------------------------------------------------------

def _matrix_as_outcomes(matrix, T, C):
    out = {}
    for qid, row in matrix.items():
        query = None
        cells = {}
        for solver, cell in row.items():
            solved = cell.solves and cell.time <= T and cell.cost <= C
            t = cell.time if solved else T
            c = min(cell.cost, C)
            rewards = {
                "time": (1 - t / T) ** 4 if solved else 0.0,
                "cost": (1 - c / C) ** 4 if solved else 0.0,
                "binary": 1.0 if solved else 0.0,
            }
            cells[solver] = DeploymentOutcome(
                solver=solver, solved=solved,
                candidate=placeholder_candidate(
                    parse_query(MAX2_TEXT)) if solved else None,
                time=t, cost=c, rewards=rewards)
        out[qid] = cells
    return out


def test_criterion_12_end_to_end_replay_experiment(tmp_path):
    corpus = tmp_path / "corpus"
    paths = write_cluster_corpus(corpus)
    assert len(paths) == 60

    config = experiment_config(reward="binary", selector="single")
    solvers = config.portfolio()
    matrix = build_outcome_matrix(paths, solvers)
    deployer = MatrixDeployer(matrix)

    # reference points pinned by construction
    assert solvable_queries(matrix) == 55
    counts = solver_solve_counts(matrix)
    assert max(counts.values()) == 36
    best_single_id = max(counts, key=counts.get)

    outcomes = _matrix_as_outcomes(matrix, config.time_budget,
                                   config.cost_budget)
    vb = virtual_best(outcomes, "binary", config.time_budget)
    assert vb.solved == 55

    # the selector, ten seeded online runs
    summary = run_corpus_multi(paths, config, seed=12, runs=10,
                               deployer=deployer)
    assert summary.mean_solved >= 47.0
    assert summary.mean_solved >= 1.30 * counts[best_single_id]

    # every single solver, full budget each query
    single_par2 = {}
    single_solved = {}
    for s in solvers:
        cfg = experiment_config(selector=f"fixed:{s}", reward="binary")
        rep = run_corpus(paths, cfg, seed=12, deployer=deployer)
        single_par2[str(s)] = rep.aggregates()["par2"]
        single_solved[str(s)] = rep.n_solved
    assert single_solved[best_single_id] == 36

    knn_par2 = max(r.aggregates()["par2"] for r in summary.reports)
    assert all(knn_par2 < p for p in single_par2.values())
    _report(
        f"12 end-to-end replay experiment "
        f"(kNN {summary.mean_solved:.1f}/60 vs best single "
        f"{counts[best_single_id]}/60, virtual best {vb.solved}/60)")


def test_virtual_best_of_the_fixed_runs_matches_the_matrix(tmp_path):
    # the experiment script takes the virtual best from the final outcomes of
    # its fixed-solver runs; the matrix read cell by cell is the oracle
    paths = write_cluster_corpus(tmp_path / "corpus")
    config = experiment_config()
    solvers = config.portfolio()
    matrix = build_outcome_matrix(paths, solvers)
    finals = {}
    for s in solvers:
        rep = run_corpus(paths, experiment_config(selector=f"fixed:{s}"),
                         seed=12, deployer=MatrixDeployer(matrix))
        for rec in rep.records:
            finals.setdefault(rec.query_id, {})[s] = rec.outcomes[-1]
    oracle = _matrix_as_outcomes(matrix, config.time_budget, config.cost_budget)
    for kind in REWARDS:
        assert (virtual_best(finals, kind, config.time_budget)
                == virtual_best(oracle, kind, config.time_budget)), kind


def test_replay_experiment_script_runs(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "replay_experiment.py"
    spec = importlib.util.spec_from_file_location("replay_experiment", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["replay_experiment.py", "--out", str(out),
                                      "--runs", "1"])
    assert module.main() == 0
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    # the virtual best, 4 selectors x 3 rewards, then the 13 fixed solvers
    assert len(rows) == 1 + 12 + 13
    assert rows[0]["selector"] == "virtual-best" and rows[0]["n_solved"] == "55"
    fixed = [int(row["n_solved"]) for row in rows[13:]]
    assert fixed == sorted(fixed, reverse=True) and fixed[0] == 36
    assert capsys.readouterr().out.splitlines()[1].startswith("virtual-best ")


# ---------------------------------------------------------------------------
# 13. Par-2 and virtual-best bookkeeping
# ---------------------------------------------------------------------------

def _record(qid, solved, elapsed):
    solver = SolverId.enumerator()
    cand = placeholder_candidate(parse_query(MAX2_TEXT)) if solved else None
    outcome = DeploymentOutcome(solver, solved, cand, elapsed, 0.4,
                                rewards={"binary": float(solved)})
    return QueryRecord(qid, ((str(solver), 100.0, 1.0),), (outcome,),
                       solver if solved else None, solved, elapsed)


def test_criterion_13_par2_and_virtual_best_bookkeeping():
    records = [_record("a", True, 12.5), _record("b", False, 99.0),
               _record("c", True, 0.0)]
    assert par2(records, 100.0) == 12.5 + 200.0 + 0.0
    assert par2([], 50.0) == 0.0

    rng = random.Random(13)
    solvers = [SolverId.enumerator(), SolverId.llm("ga", 1),
               SolverId.llm("lb", 2)]
    matrix = {}
    for i in range(30):
        row = {}
        for s in solvers:
            solved = rng.random() < 0.5
            reward = round(rng.random(), 6) if solved else 0.0
            cand = placeholder_candidate(parse_query(MAX2_TEXT)) if solved else None
            row[s] = DeploymentOutcome(s, solved, cand, rng.uniform(0, 99),
                                       1.0, rewards={"binary": reward})
        matrix[f"q{i:02d}"] = row
    vb = virtual_best(matrix, "binary", T=100.0)
    assert vb.total_reward == pytest.approx(sum(
        max(o.reward("binary") for o in row.values())
        for row in matrix.values()))
    for s in solvers:
        single = sum(matrix[q][s].reward("binary") for q in matrix)
        assert vb.total_reward >= single - 1e-12
    _report("13 par2 and virtual-best bookkeeping")
