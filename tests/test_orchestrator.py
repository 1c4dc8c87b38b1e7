import json
import random

import pytest

from synthsel.bandit import BanditStore, SolverId
from synthsel.config import ModelConfig, RunConfig
from synthsel.orchestrator import (
    MatrixCell,
    MatrixDeployer,
    MultiRunSummary,
    QueryRecord,
    RunReport,
    SolverDeployer,
    new_state,
    par2,
    placeholder_candidate,
    rank_solvers,
    run_corpus,
    run_corpus_multi,
    solve_query,
    virtual_best,
)
from synthsel.outcomes import DeploymentOutcome
from synthsel.reports import load_report, rescore, write_run_outputs
from synthsel.sygus import parse_query
from synthsel.verify import VerificationResult, Verifier

from conftest import MAX2_SOLUTION, MAX2_TEXT, ScriptedBackend, deep_query_text

E = SolverId.enumerator()
P1 = SolverId.llm("m", 1)
P4 = SolverId.llm("m", 4)


def _qrec(qid, solved, elapsed, solver=P4, cost=100.0, rewards=None):
    outcome = DeploymentOutcome(
        solver=solver, solved=solved,
        candidate=placeholder_candidate(parse_query(MAX2_TEXT)) if solved else None,
        time=elapsed, cost=cost, rewards=rewards or {"binary": float(solved)})
    return QueryRecord(qid, ((str(solver), 10.0, 100.0),), (outcome,),
                       solver if solved else None, solved, elapsed)


# ---------------------------------------------------------------------------
# par2 / virtual best
# ---------------------------------------------------------------------------

def test_par2_hand_computation():
    records = [_qrec("a", True, 10.0)]
    assert par2(records, 100.0) == 10.0
    records.append(_qrec("b", False, 77.0))
    assert par2(records, 100.0) == 210.0
    with pytest.raises(ValueError):
        par2(records, 0.0)


def test_par2_upper_bound_all_unsolved():
    records = [_qrec(str(i), False, 100.0) for i in range(1269)]
    assert par2(records, 100.0) == 253_800.0


def _cell_outcome(solver, solved, t, reward):
    return DeploymentOutcome(
        solver=solver, solved=solved,
        candidate=placeholder_candidate(parse_query(MAX2_TEXT)) if solved else None,
        time=t, cost=1.0, rewards={"binary": reward})


def test_virtual_best_dominating_solver():
    matrix = {
        f"q{i}": {
            P1: _cell_outcome(P1, True, 5.0, 1.0),
            P4: _cell_outcome(P4, False, 9.0, 0.0),
        }
        for i in range(4)
    }
    vb = virtual_best(matrix, "binary", T=100.0)
    assert vb.solved == 4
    assert vb.par2 == 20.0
    assert all(chosen == str(P1) for _, chosen in vb.choices)


def test_virtual_best_union_of_two_halves():
    matrix = {}
    for i in range(10):
        a_solves = i < 5
        matrix[f"q{i}"] = {
            P1: _cell_outcome(P1, a_solves, 3.0, 1.0 if a_solves else 0.0),
            P4: _cell_outcome(P4, not a_solves, 4.0, 0.0 if a_solves else 1.0),
        }
    vb = virtual_best(matrix, "binary", T=100.0)
    assert vb.solved == 10


def test_virtual_best_matches_bruteforce_max():
    rng = random.Random(3)
    solvers = [E, P1, P4]
    matrix = {}
    for i in range(25):
        row = {}
        for s in solvers:
            solved = rng.random() < 0.6
            reward = rng.random() if solved else 0.0
            row[s] = _cell_outcome(s, solved, rng.uniform(1, 50), reward)
        matrix[f"q{i}"] = row
    vb = virtual_best(matrix, "binary", T=100.0)
    expected_reward = sum(
        max(o.reward("binary") for o in row.values())
        for row in matrix.values())
    assert vb.total_reward == pytest.approx(expected_reward)
    # dominance over every single solver
    for s in solvers:
        single = sum(matrix[q][s].reward("binary") for q in matrix)
        assert vb.total_reward >= single


def test_virtual_best_incomplete_matrix_rejected():
    matrix = {
        "a": {P1: _cell_outcome(P1, True, 1.0, 1.0)},
        "b": {P4: _cell_outcome(P4, True, 1.0, 1.0)},
    }
    with pytest.raises(ValueError, match="incomplete"):
        virtual_best(matrix, "binary", T=100.0)


# ---------------------------------------------------------------------------
# solve_query through the mock deployer
# ---------------------------------------------------------------------------

def _config(**kw):
    defaults = dict(models=(ModelConfig("m", styles=(1, 4)),),
                    time_budget=100.0, cost_budget=100_000.0, seed=0)
    defaults.update(kw)
    return RunConfig(**defaults)


def _write_corpus(tmp_path, n):
    paths = []
    for i in range(n):
        p = tmp_path / f"q{i:02d}.sl"
        p.write_text(MAX2_TEXT)
        paths.append(str(p))
    return paths


def test_solve_query_first_solver_wins(tmp_path):
    config = _config()
    query = parse_query(MAX2_TEXT)
    matrix = {"q": {s: MatrixCell(solves=True, time=2.0, cost=50.0)
                    for s in config.portfolio()}}
    state = new_state(config, 0)
    record = solve_query(query, "q", config, state, MatrixDeployer(matrix))
    assert record.solved
    assert len(record.outcomes) == 1  # stops at the first success
    assert len(state.store) == 1


def test_solve_query_failure_then_success(tmp_path):
    config = _config()
    query = parse_query(MAX2_TEXT)
    # only m-p4 can solve; others burn their slices
    matrix = {"q": {
        s: MatrixCell(solves=(s == P4), time=2.0, cost=50.0, fail_time=5.0)
        for s in config.portfolio()}}
    state = new_state(config, 0)
    record = solve_query(query, "q", config, state, MatrixDeployer(matrix))
    assert record.solved and record.winner == P4
    assert len(record.outcomes) >= 1
    assert len(state.store) == 1  # only the success was recorded
    assert state.store.records[0].solver == P4
    # elapsed includes the burned slices of the failed attempts
    assert record.elapsed >= 2.0


def test_solve_query_no_solver_succeeds():
    config = _config()
    query = parse_query(MAX2_TEXT)
    matrix = {"q": {s: MatrixCell(solves=False, fail_time=1.0)
                    for s in config.portfolio()}}
    state = new_state(config, 0)
    record = solve_query(query, "q", config, state, MatrixDeployer(matrix))
    assert not record.solved
    assert record.winner is None
    assert len(state.store) == 0  # nothing recorded on failure
    assert len(record.outcomes) == len(config.portfolio())


def test_solve_query_rewards_consistent():
    config = _config(reward="time", selector="fixed:m-p4")
    query = parse_query(MAX2_TEXT)
    matrix = {"q": {P4: MatrixCell(solves=True, time=50.0, cost=25_000.0)}}
    state = new_state(config, 0)
    record = solve_query(query, "q", config, state, MatrixDeployer(matrix))
    final = record.outcomes[-1]
    assert final.rewards["time"] == pytest.approx(0.0625)
    assert final.rewards["cost"] == pytest.approx(0.31640625)
    assert final.rewards["binary"] == 1.0
    assert state.store.records[0].reward == pytest.approx(
        final.rewards["time"])


def test_double_selector_updates_prompt_store():
    config = _config(selector="double")
    query = parse_query(MAX2_TEXT)
    matrix = {"q": {s: MatrixCell(solves=(s.kind == "llm"), time=1.0, cost=10.0,
                                  fail_time=1.0)
                    for s in config.portfolio()}}
    state = new_state(config, 0)
    record = solve_query(query, "q", config, state, MatrixDeployer(matrix))
    assert record.solved
    assert len(state.store) == 1
    assert [r.solver.model for r in state.store.records] == ["m"]
    # model m's prompt layer reads the record: the winner now ranks first
    features = state.store.records[0].features
    assert rank_solvers(config, state, features)[0] == record.winner


def test_fixed_solver_selector():
    config = _config(selector="fixed:enumerator")
    query = parse_query(MAX2_TEXT)
    matrix = {"q": {E: MatrixCell(solves=True, time=1.5, cost=123.0)}}
    state = new_state(config, 0)
    record = solve_query(query, "q", config, state, MatrixDeployer(matrix))
    assert record.solved and record.winner == E
    assert record.schedule == (("enumerator", 100.0, 100_000.0),)
    # enumerator cost is pinned to the constant regardless of the cell
    assert record.outcomes[0].cost == 0.4


def test_linear_selector_even_slices():
    config = _config(selector="linear-single")
    query = parse_query(MAX2_TEXT)
    matrix = {"q": {s: MatrixCell(solves=False, fail_time=0.5)
                    for s in config.portfolio()}}
    state = new_state(config, 0)
    record = solve_query(query, "q", config, state, MatrixDeployer(matrix))
    n = len(config.portfolio())
    for _, t, c in record.schedule:
        assert t == pytest.approx(100.0 / n)
        assert c == pytest.approx(100_000.0 / n)


def test_grace_clamps_charged_time():
    config = _config(selector="fixed:m-p4", grace=0.5)
    query = parse_query(MAX2_TEXT)

    class Overrunner:
        def deploy(self, query, qid, entry, state):
            return DeploymentOutcome(entry.solver, False, None,
                                     time=entry.time + 30.0, cost=1.0)

    state = new_state(config, 0)
    record = solve_query(query, "q", config, state, Overrunner())
    assert record.outcomes[0].time == pytest.approx(100.5)


@pytest.mark.parametrize("over, detail", [
    (1.234, "stub; overran slice: wall 101.234 s"),
    (0.5, "stub"),  # within the grace: nothing to report
])
def test_overrun_keeps_charged_time_and_reports_wall_time(over, detail):
    config = _config(selector="fixed:m-p4", grace=0.5)

    class Overrunner:
        def deploy(self, query, qid, entry, state):
            return DeploymentOutcome(entry.solver, False, None, time=entry.time + over,
                                     cost=1.0, detail="stub")

    record = solve_query(parse_query(MAX2_TEXT), "q", config, new_state(config, 0),
                         Overrunner())
    assert record.outcomes[0].time == pytest.approx(100.0 + min(over, 0.5))
    assert record.outcomes[0].detail == detail


@pytest.mark.parametrize("cost_budget, overran", [(150.0, True), (100_000.0, False)])
def test_a_cost_overrun_is_reported(cost_budget, overran):
    # the loop sends while the cost so far is within the slice, so the one
    # reply it takes can carry the solve past it
    config = _config(selector="fixed:m-p4", cost_budget=cost_budget)
    deployer = SolverDeployer(Verifier(), backend=ScriptedBackend([MAX2_SOLUTION]))
    record = solve_query(parse_query(MAX2_TEXT), "q", config, new_state(config, 0),
                         deployer)
    outcome = record.outcomes[0]
    assert outcome.solved and outcome.cost > 150.0
    note = f"overran cost slice: {outcome.cost:g} of {cost_budget:g}"
    assert outcome.detail == (note if overran else "")


# ---------------------------------------------------------------------------
# corpus runs
# ---------------------------------------------------------------------------

def _matrix_for(paths, config, winner=P4):
    return {p: {s: MatrixCell(solves=(s == winner), time=2.0, cost=50.0,
                              fail_time=4.0)
                for s in config.portfolio()}
            for p in paths}


def test_run_corpus_single_query(tmp_path):
    config = _config()
    paths = _write_corpus(tmp_path, 1)
    report = run_corpus(paths, config, seed=1,
                        deployer=MatrixDeployer(_matrix_for(paths, config)))
    assert report.n_queries == 1
    assert report.n_solved == 1


def test_run_corpus_deterministic(tmp_path):
    config = _config()
    paths = _write_corpus(tmp_path, 6)
    deployer = MatrixDeployer(_matrix_for(paths, config))
    a = run_corpus(paths, config, seed=5, deployer=deployer)
    b = run_corpus(paths, config, seed=5, deployer=deployer)
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_run_corpus_online_ordering(tmp_path):
    # the store used for query i holds only records from earlier queries
    config = _config()
    paths = _write_corpus(tmp_path, 5)
    sizes = []

    class SpyDeployer(MatrixDeployer):
        def deploy(self, query, qid, entry, state):
            sizes.append(len(state.store))
            return super().deploy(query, qid, entry, state)

    run_corpus(paths, config, seed=2,
               deployer=SpyDeployer(_matrix_for(paths, config)))
    # store sizes never decrease and grow by at most one per query
    assert sizes[0] == 0
    assert all(b - a in (0, 1) for a, b in zip(sizes, sizes[1:]))


def test_run_corpus_skips_unreadable(tmp_path):
    config = _config()
    paths = _write_corpus(tmp_path, 2)
    broken = tmp_path / "broken.sl"
    broken.write_text("(set-logic LIA) (constraint")
    all_paths = paths + [str(broken)]
    report = run_corpus(all_paths, config, seed=0,
                        deployer=MatrixDeployer(_matrix_for(paths, config)))
    assert report.n_queries == 2
    assert report.skipped == [str(broken)]
    assert report.aggregates()["skipped"] == 1


def test_run_corpus_multi_mean_std(tmp_path):
    config = _config()
    paths = _write_corpus(tmp_path, 4)
    summary = run_corpus_multi(paths, config, seed=3, runs=3,
                               deployer=MatrixDeployer(
                                   _matrix_for(paths, config)))
    assert len(summary.reports) == 3
    assert summary.mean_solved == 4.0
    assert summary.std_solved == 0.0


def test_state_persistence_round_trip(tmp_path):
    state_file = tmp_path / "state.jsonl"
    config = _config(state=str(state_file))
    paths = _write_corpus(tmp_path, 3)
    deployer = MatrixDeployer(_matrix_for(paths, config))
    run_corpus(paths, config, seed=0, deployer=deployer)
    assert state_file.exists()
    loaded = BanditStore.load(state_file)
    assert len(loaded) == 3
    # a fresh state warm-starts from the file
    state = new_state(config, seed=9)
    assert len(state.store) == 3


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_aggregates_recompute(tmp_path):
    config = _config()
    paths = _write_corpus(tmp_path, 5)
    report = run_corpus(paths, config, seed=1,
                        deployer=MatrixDeployer(_matrix_for(paths, config)))
    agg = report.aggregates()
    assert agg["n_solved"] == sum(1 for r in report.records if r.solved)
    assert agg["par2"] == pytest.approx(par2(report.records, 100.0))
    assert agg["reward_binary"] == float(agg["n_solved"])


def test_report_json_round_trip_and_outputs(tmp_path):
    config = _config()
    paths = _write_corpus(tmp_path, 3)
    report = run_corpus(paths, config, seed=1,
                        deployer=MatrixDeployer(_matrix_for(paths, config)))
    out = tmp_path / "out"
    summary = MultiRunSummary([report], 1.0, 0.0)
    written = write_run_outputs(out, report, summary)
    data = report.to_json()
    events = written["events"].read_text()
    assert events == "".join(json.dumps(rec) + "\n" for rec in data["records"])
    # report.json: one top-level key per line, each value compact, and the
    # events.jsonl lines as its record lines, commas on lines of their own
    record_lines = events.splitlines()
    assert written["report"].read_text() == "\n".join([
        "{",
        *(f'"{key}": {json.dumps(data[key])},' for key in
          ("seed", "time_budget", "cost_budget", "selector", "reward")),
        '"records": [',
        *(part for i, line in enumerate(record_lines)
          for part in ([",", line] if i else [line])),
        "],",
        f'"skipped": {json.dumps(data["skipped"])},',
        f'"aggregates": {json.dumps(data["aggregates"])}',
        "}",
    ]) + "\n"
    assert written["multirun"].read_text() == json.dumps(summary.to_json(), indent=2)
    loaded = load_report(written["report"])
    assert loaded.aggregates() == report.aggregates()
    assert (out / "summary.csv").read_text().count("\n") == 2  # header + row
    curve = (out / "cumulative_par2.csv").read_text().strip().splitlines()
    assert curve[0] == "query_index,cumulative_par2"
    assert len(curve) == 1 + report.n_queries
    # cumulative curve is nondecreasing
    values = [float(line.split(",")[1]) for line in curve[1:]]
    assert all(b >= a for a, b in zip(values, values[1:]))


def _write_and_read(out, report):
    written = write_run_outputs(out, report)
    return (written["report"].read_text(encoding="utf-8"),
            written["events"].read_text(encoding="utf-8"))


def test_report_json_is_built_from_the_event_lines(tmp_path):
    config = _config()
    paths = _write_corpus(tmp_path, 4)
    report = run_corpus(paths, config, seed=1,
                        deployer=MatrixDeployer(_matrix_for(paths, config)))
    text, events = _write_and_read(tmp_path / "out", report)
    assert json.loads(text) == report.to_json()
    assert load_report(tmp_path / "out" / "report.json").to_json() == report.to_json()
    event_lines = events.splitlines()
    assert len(event_lines) == report.n_queries
    report_lines = text.splitlines()
    for line in event_lines:
        assert report_lines.count(line) == 1


def test_report_json_without_records_and_with_skipped(tmp_path):
    empty = RunReport(0, 100.0, 1000.0, "single", "binary", [])
    text, events = _write_and_read(tmp_path / "empty", empty)
    assert events == ""
    assert '\n"records": [],\n' in text
    assert json.loads(text) == empty.to_json()
    assert load_report(tmp_path / "empty" / "report.json").to_json() == empty.to_json()

    skipped = RunReport(3, 100.0, 1000.0, "single", "binary",
                        [_qrec("a", True, 10.0)], skipped=["bad.sl", "deep.sl"])
    text, events = _write_and_read(tmp_path / "skipped", skipped)
    assert '\n"skipped": ["bad.sl", "deep.sl"],\n' in text
    assert json.loads(text) == skipped.to_json()
    assert load_report(tmp_path / "skipped" / "report.json").skipped == \
        ["bad.sl", "deep.sl"]


def test_report_json_non_ascii_id_and_non_finite_floats(tmp_path):
    report = RunReport(
        1, 100.0, 1000.0, "single", "binary",
        [_qrec("\u00e9t\u00e9-\u03b2.sl", False, float("inf")),
         _qrec("max2", True, 5.0,
               rewards={"binary": 1.0, "time": float("nan"),
                        "cost": float("-inf")})])
    text, events = _write_and_read(tmp_path / "out", report)
    old_text = json.dumps(report.to_json(), indent=2)
    # NaN equals nothing, so the parsed contents are compared re-encoded
    assert json.dumps(json.loads(text)) == json.dumps(json.loads(old_text))
    assert text.isascii() and events.isascii()
    assert "Infinity" in events and "NaN" in events
    loaded = load_report(tmp_path / "out" / "report.json")
    assert loaded.records[0].query_id == "\u00e9t\u00e9-\u03b2.sl"
    assert loaded.records[0].elapsed == float("inf")


def test_report_in_the_indented_layout_still_loads_and_rescores(tmp_path):
    config = _config(reward="time")
    paths = _write_corpus(tmp_path, 4)
    report = run_corpus(paths, config, seed=1,
                        deployer=MatrixDeployer(_matrix_for(paths, config)))
    old = tmp_path / "old-report.json"
    old.write_text(json.dumps(report.to_json(), indent=2), encoding="utf-8")
    written = write_run_outputs(tmp_path / "out", report)
    from_old = load_report(old)
    from_new = load_report(written["report"])
    assert from_old.to_json() == from_new.to_json() == report.to_json()
    for kind in ("binary", "time", "cost"):
        assert rescore(from_old, kind) == rescore(from_new, kind) == \
            rescore(report, kind)


def test_rescore_round_trip(tmp_path):
    config = _config(reward="time")
    paths = _write_corpus(tmp_path, 4)
    report = run_corpus(paths, config, seed=1,
                        deployer=MatrixDeployer(_matrix_for(paths, config)))
    re_cost = rescore(report, "cost")
    assert re_cost["total_reward"] == pytest.approx(
        sum(r.outcomes[-1].reward("cost") for r in report.records if r.solved))
    re_same = rescore(report, "time")
    assert re_same["total_reward"] == pytest.approx(
        report.aggregates()["reward_time"])
    empty = RunReport(0, 100.0, 1000.0, "single", "binary", [])
    assert rescore(empty, "binary")["total_reward"] == 0.0


# ---------------------------------------------------------------------------
# the real deployer wired to the enumerator
# ---------------------------------------------------------------------------

def test_solver_deployer_enumerator_solves_max2():
    from synthsel.budget import ScheduleEntry

    config = _config()
    query = parse_query(MAX2_TEXT)
    deployer = SolverDeployer(verifier=Verifier())
    state = new_state(config, 0)
    entry = ScheduleEntry(E, time=60.0, cost=100.0)
    outcome = deployer.deploy(query, "q", entry, state)
    assert outcome.solved
    assert outcome.cost == 0.4
    assert Verifier().check(query, outcome.candidate).is_valid


def test_enumerator_reports_true_verdict_provenance():
    # the external solver cannot launch, so only the internal grid checked
    # the answer; the outcome must say so rather than name the solver
    from synthsel.budget import ScheduleEntry

    config = _config()
    query = parse_query(MAX2_TEXT)
    deployer = SolverDeployer(
        verifier=Verifier(solver_command=("/nonexistent-smt",)))
    entry = ScheduleEntry(E, time=60.0, cost=100.0)
    outcome = deployer.deploy(query, "q", entry, new_state(config, 0))
    assert outcome.solved
    assert outcome.verdict_provenance == "internal"


class _BoundedVerifier(Verifier):
    def check(self, query, cand, deadline=None):
        return VerificationResult.valid(bounded=True)


@pytest.mark.parametrize("verifier, bounded", [(Verifier(), False),
                                                (_BoundedVerifier(), True)],
                         ids=["exact", "bounded"])
def test_enumerator_outcome_says_whether_the_verdict_was_bounded(verifier, bounded):
    from synthsel.budget import ScheduleEntry

    deployer = SolverDeployer(verifier=verifier)
    entry = ScheduleEntry(E, time=60.0, cost=100.0)
    outcome = deployer.deploy(parse_query(MAX2_TEXT), "q", entry, new_state(_config(), 0))
    assert outcome.solved and outcome.verdict_bounded is bounded
    encoded = outcome.to_json()
    assert encoded["verdict_bounded"] is bounded
    assert DeploymentOutcome.from_json(encoded) == outcome
    # a report written before the field reads as exact
    del encoded["verdict_bounded"]
    assert DeploymentOutcome.from_json(encoded).verdict_bounded is False


def test_enumerator_deployment_ends_at_once_on_a_query_too_deep_to_check():
    from synthsel.budget import ScheduleEntry

    entry = ScheduleEntry(E, time=5.0, cost=100.0)
    outcome = SolverDeployer(verifier=Verifier()).deploy(
        parse_query(deep_query_text(600)), "q", entry, new_state(_config(), 0))
    assert not outcome.solved
    assert outcome.detail.startswith("cegis formula nested too deeply: 1 iterations")
    assert outcome.time < 1.0


def test_grammar_generator_query_parses_but_the_enumerator_has_no_grammar():
    # the LLM arms can still answer it: the prompt shows the grammar as given
    from synthsel.budget import ScheduleEntry

    grammar = "((I Int (v0 v1 (Constant Int) (+ I I))))"
    query = parse_query(MAX2_TEXT.replace(
        "(synth-fun f ((v0 Int) (v1 Int)) Int)",
        f"(synth-fun f ((v0 Int) (v1 Int)) Int {grammar})"))
    assert query.user_grammar_sexpr == grammar
    outcome = SolverDeployer(verifier=Verifier()).deploy(
        query, "q", ScheduleEntry(E, time=5.0, cost=100.0),
        new_state(_config(), 0))
    assert not outcome.solved
    assert outcome.detail == "no grammar: grammar generator 'Constant' is not supported"


def test_run_corpus_keeps_learned_state_on_crash(tmp_path):
    from synthsel.llm.backends import ReplayMissError

    state_file = tmp_path / "state.jsonl"
    config = _config(state=str(state_file))
    paths = _write_corpus(tmp_path, 5)
    seen = []

    class CrashOnThird(MatrixDeployer):
        def deploy(self, query, qid, entry, state):
            if qid not in seen:
                seen.append(qid)
            if len(seen) == 3:
                raise ReplayMissError("no recorded response")
            return super().deploy(query, qid, entry, state)

    with pytest.raises(ReplayMissError) as raised:
        run_corpus(paths, config, seed=0,
                   deployer=CrashOnThird(_matrix_for(paths, config)))
    # the two queries solved before the crash are kept
    assert len(BanditStore.load(state_file)) == 2
    # and reported: the partial report rides on the exception
    partial = raised.value.partial_report
    assert [r.query_id for r in partial.records] == seen[:2]
    assert all(r.solved and r.winner == P4 for r in partial.records)
    assert partial.aggregates()["n_solved"] == 2
