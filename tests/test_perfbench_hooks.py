"""perfbench's traced run (`perfbench/run.py --trace 1`) wraps program
functions by module attribute name. Installing and removing those wrappers
here, and tracing one solve, makes a rename in `src/` or a call that goes
around the wrapped attributes fail a test instead of silently emptying the
traced benchmark's metrics. The benchmark's BV answers must also keep
verifying exactly, or the llm-repair workload silently measures the bounded
sweep again."""

from pathlib import Path

import pytest

import synthsel.bandit as bandit
import synthsel.budget as budget
import synthsel.orchestrator as orchestrator
from synthsel.config import ModelConfig, RunConfig
from synthsel.sygus import SygusError, parse_define_fun, parse_query
from synthsel.verify import VerificationResult, Verifier
from conftest import MAX2_SOLUTION, MAX2_TEXT, ScriptedBackend

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("deployer", [
    orchestrator.MatrixDeployer({}),
    orchestrator.SolverDeployer(Verifier()),
], ids=["matrix", "solver"])
def test_traced_benchmark_hooks_install_and_restore(deployer, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    originals = (orchestrator.build_schedule, budget.nearest_records,
                 bandit.BanditStore.__dict__["load"], type(deployer).deploy)
    tracer = Tracer()
    try:
        layers.install(tracer, deployer)
        assert orchestrator.build_schedule is not originals[0]
    finally:
        tracer.restore()
    assert (orchestrator.build_schedule, budget.nearest_records,
            bandit.BanditStore.__dict__["load"], type(deployer).deploy) == originals


@pytest.mark.parametrize("selector", ["single", "linear-double"])
def test_traced_solve_records_rank_and_schedule_spans(selector, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    config = RunConfig(selector=selector, models=(ModelConfig("m", (1, 2)),))
    state = orchestrator.new_state(config, 0)
    cell = orchestrator.MatrixCell(solves=True, time=1.0, cost=10.0)
    deployer = orchestrator.MatrixDeployer(
        {"q": {s: cell for s in state.portfolio}})
    tracer = Tracer()
    try:
        layers.install(tracer, deployer)
        record = orchestrator.solve_query(parse_query(MAX2_TEXT), "q", config,
                                          state, deployer)
    finally:
        tracer.restore()
    assert record.solved
    names = [s.name for s in tracer.spans]
    assert names.count("bandit.rank") == names.count("budget.schedule") == 1
    assert "orchestrator.deploy" in names


def test_traced_llm_solve_reports_the_transcript_totals(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    results = []
    solve = orchestrator.solve_with_llm

    def keep(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(orchestrator, "solve_with_llm", keep)
    config = RunConfig(selector="single", models=(ModelConfig("m", (4,)),),
                       include_enumerator=False)
    state = orchestrator.new_state(config, 0)
    wrong = "(define-fun f ((v0 Int) (v1 Int)) Int v0)"
    deployer = orchestrator.SolverDeployer(
        Verifier(), backend=ScriptedBackend([wrong, MAX2_SOLUTION], output_tokens=[7, 9]))
    tracer = Tracer()
    try:
        layers.install(tracer, deployer)
        record = orchestrator.solve_query(parse_query(MAX2_TEXT), "q", config,
                                          state, deployer)
    finally:
        tracer.restore()
    assert record.solved
    [result] = results
    [span] = [s for s in tracer.spans if s.name == "llm.solve"]
    transcript = result.transcript
    assert span.attrs == {"attempts": transcript.assistant_count,
                          "input_tokens": transcript.input_tokens,
                          "output_tokens": transcript.output_tokens}
    assert (result.attempts, transcript.output_tokens) == (2, 7 + 9)
    assert transcript.input_tokens > 0
    assert [s.name for s in tracer.spans].count("llm.extract") == 2


def test_benchmark_bv_answers_verify_exactly(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs

    queries = [q for q in inputs.llm_corpus(inputs.DEFAULT_SEED) if q.family == "bv"]
    assert len(queries) == 2 * len(inputs._BV_FORMS)
    for q in queries:
        params = " ".join(f"({n} {s})" for n, s in q.params)
        answer = parse_define_fun(f"(define-fun {q.fn} ({params}) {q.ret} {q.solution})")
        assert Verifier().check(parse_query(q.text), answer) == \
            VerificationResult.valid(bounded=False), q.solution


def test_every_benchmark_and_experiment_query_is_read(tmp_path, monkeypatch):
    # a query the reader rejects is skipped, not failed: a stricter reader
    # would change a benchmark digest without any error
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    from synthsel.experiments import write_cluster_corpus

    bundled = PERFBENCH.parent / "benchmarks"
    paths = [str(p) for p in sorted(bundled.glob("*.sl"))]
    paths += write_cluster_corpus(tmp_path / "clusters")
    for seed in (inputs.DEFAULT_SEED, inputs.HELD_OUT_SEED):
        paths += inputs.write_queries(tmp_path / f"enum{seed}",
                                      inputs.enum_corpus(seed, bundled))
        paths += inputs.write_queries(tmp_path / f"llm{seed}", inputs.llm_corpus(seed))
        paths += inputs.select_stream(seed, tmp_path / f"stream{seed}")
    unread = []
    for path in paths:
        try:
            parse_query(Path(path).read_text(encoding="utf-8"))
        except SygusError as exc:
            unread.append(f"{path}: {exc}")
    assert unread == [] and len(paths) > 200
