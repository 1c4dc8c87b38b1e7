import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import synthsel
from synthsel.cli import main
from synthsel.config import ModelConfig, RunConfig

from conftest import MAX2_TEXT, deep_query_text


def test_importing_the_cli_loads_only_numpy_and_the_standard_library():
    # what the interpreter's own start-up loaded (a .pth file may import a
    # package) is left out: only the modules that the import adds count
    script = ("import sys; before = set(sys.modules); import synthsel.cli; "
              "print(*sorted(set(sys.modules) - before))")
    src = str(Path(synthsel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run([sys.executable, "-c", script], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}).stdout.split()
    assert "synthsel.cli" in loaded
    tops = {name.partition(".")[0] for name in loaded}
    assert tops - sys.stdlib_module_names == {"numpy", "synthsel"}


def test_solve_enumerator_prints_define_fun(tmp_path, capsys):
    path = tmp_path / "max2.sl"
    path.write_text(MAX2_TEXT)
    code = main(["solve", str(path), "--selector", "fixed:enumerator",
                 "--time-budget", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().startswith("(define-fun f ")


def test_solve_enumerator_takes_parameters_named_like_nonterminals(tmp_path, capsys):
    path = tmp_path / "max2.sl"
    path.write_text(MAX2_TEXT.replace("v0", "I").replace("v1", "B"))
    assert main(["solve", str(path), "--selector", "fixed:enumerator",
                 "--time-budget", "60"]) == 0
    assert capsys.readouterr().out.strip() == \
        "(define-fun f ((I Int) (B Int)) Int (ite (>= I B) I B))"


def test_solve_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.sl"
    path.write_text("(set-logic LIA")
    code = main(["solve", str(path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_solve_missing_file_exits_2(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "absent.sl")])
    assert code == 2


def test_solve_unsolvable_exits_1(tmp_path, capsys):
    # finite grammar that cannot express the required constant
    path = tmp_path / "stuck.sl"
    path.write_text("""(set-logic LIA)
(synth-fun f ((x Int)) Int ((I Int)) ((I Int (0))))
(declare-var x Int)
(constraint (= (f x) 1))
(check-synth)
""")
    code = main(["solve", str(path), "--selector", "fixed:enumerator",
                 "--time-budget", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "UNSOLVED" in out


def test_run_empty_corpus_exits_2(tmp_path, capsys):
    code = main(["run", str(tmp_path)])
    assert code == 2


def test_run_corpus_writes_reports(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(2):
        (corpus / f"q{i}.sl").write_text(MAX2_TEXT)
    out_dir = tmp_path / "out"
    code = main(["run", str(corpus), "--selector", "fixed:enumerator",
                 "--time-budget", "30", "--seed", "3",
                 "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "cumulative_par2.csv").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["aggregates"]["n_solved"] == 2


def test_run_to_an_out_path_that_is_a_file_exits_2_before_solving(tmp_path, capsys,
                                                                 monkeypatch):
    import synthsel.cli as cli

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "q.sl").write_text(MAX2_TEXT)
    out = tmp_path / "taken"
    out.write_text("not a directory")
    monkeypatch.setattr(cli, "run_corpus", lambda *args, **kwargs: pytest.fail(
        "no query may be solved"))
    code = main(["run", str(corpus), "--selector", "fixed:enumerator",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == "not a directory"


def test_run_deterministic_with_seed(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(3):
        (corpus / f"q{i}.sl").write_text(MAX2_TEXT)

    def run(out_name):
        out_dir = tmp_path / out_name
        assert main(["run", str(corpus), "--selector", "fixed:enumerator",
                     "--time-budget", "30", "--seed", "11",
                     "--out", str(out_dir)]) == 0
        data = json.loads((out_dir / "report.json").read_text())
        # drop wall-clock readings before comparing
        for rec in data["records"]:
            for o in rec["outcomes"]:
                o["time"] = 0
                o["rewards"] = {}
            rec["elapsed"] = 0
        data["aggregates"] = {}
        return json.dumps(data, sort_keys=True)

    assert run("out_a") == run("out_b")


def test_run_several_runs_with_state_is_usage_error(tmp_path, capsys):
    # independent runs share no learning state: the file would be neither
    # read nor written
    state = tmp_path / "st.jsonl"
    out_dir = tmp_path / "out"
    code = main(["run", str(_command_target("run", tmp_path)), "--runs", "2",
                 "--state", str(state), "--selector", "fixed:enumerator",
                 "--time-budget", "30", "--out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--runs" in err and "--state" in err
    assert not state.exists() and not out_dir.exists()


def test_rescore_cli(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "q.sl").write_text(MAX2_TEXT)
    out_dir = tmp_path / "out"
    assert main(["run", str(corpus), "--selector", "fixed:enumerator",
                 "--time-budget", "30", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    code = main(["rescore", str(out_dir / "report.json"),
                 "--reward", "cost"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["reward"] == "cost"
    assert result["n_solved"] == 1


def test_rescore_corrupt_report_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["rescore", str(bad), "--reward", "time"]) == 2


@pytest.mark.parametrize("body", [
    "[]",
    json.dumps({"seed": 1, "time_budget": 30.0, "cost_budget": 1000.0,
                "selector": "single", "reward": "time", "records": None}),
], ids=["top-level-list", "null-records"])
def test_rescore_wrong_shape_report_exits_2(tmp_path, capsys, body):
    bad = tmp_path / "bad.json"
    bad.write_text(body)
    assert main(["rescore", str(bad), "--reward", "cost"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot load report {bad}: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_config_file_flag_precedence(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg = RunConfig(time_budget=42.0, selector="fixed:enumerator")
    cfg_path.write_text(json.dumps(cfg.to_json()))
    path = tmp_path / "max2.sl"
    path.write_text(MAX2_TEXT)
    # flag overrides the file's selector; file's budget still applies
    code = main(["solve", str(path), "--config", str(cfg_path),
                 "--selector", "fixed:enumerator"])
    assert code == 0


def test_config_round_trip(tmp_path):
    cfg = RunConfig(models=(ModelConfig("g", styles=(1, 2)),), k=7,
                    selector="double")
    loaded = RunConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert loaded == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config"):
        RunConfig.from_json({"bogus": 1})


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2


def test_each_model_uses_its_own_endpoint(tmp_path, monkeypatch, chat_server):
    from synthsel.cli import make_deployer
    from synthsel.llm import Message, RecordingBackend

    monkeypatch.setenv("KEY_A", "a-secret")
    monkeypatch.setenv("KEY_B", "b-secret")
    url_a, url_b = chat_server.url("/a/v1"), chat_server.url("/b/v1")
    models = (ModelConfig("model-a", endpoint=url_a, api_key_env="KEY_A"),
              ModelConfig("model-b", endpoint=url_b, api_key_env="KEY_B"))
    fixtures = tmp_path / "recorded.jsonl"
    messages = [Message("user", "hello")]
    for backend in ("http", "record"):
        chat = make_deployer(RunConfig(models=models, backend=backend,
                                       fixtures=str(fixtures))).backend
        assert isinstance(chat, RecordingBackend) == (backend == "record")
        assert chat.complete("model-b", messages).text == "from /b/v1"
        assert chat.complete("model-a", messages).text == "from /a/v1"
    sent = [(post.path, json.loads(post.body)["model"], post.headers["Authorization"])
            for post in chat_server.seen]
    assert sent == [("/b/v1", "model-b", "Bearer b-secret"),
                    ("/a/v1", "model-a", "Bearer a-secret")] * 2
    assert len(fixtures.read_text().splitlines()) == 2  # only the record pass


@pytest.mark.parametrize("backend", ["http", "record"])
def test_model_without_endpoint_is_usage_error(backend, tmp_path, capsys, chat_server):
    cfg = RunConfig(models=(ModelConfig("model-a", endpoint=chat_server.url()),
                            ModelConfig("model-b")),
                    backend=backend, fixtures=str(tmp_path / "recorded.jsonl"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_json()))
    path = tmp_path / "max2.sl"
    path.write_text(MAX2_TEXT)
    assert main(["solve", str(path), "--config", str(cfg_path)]) == 2
    assert "model-b" in capsys.readouterr().err
    assert chat_server.seen == []  # no request was sent


def test_run_crash_writes_partial_report_and_exits_nonzero(tmp_path, monkeypatch, capsys):
    import synthsel.cli as cli
    from synthsel.llm.backends import ReplayMissError

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(3):
        (corpus / f"q{i}.sl").write_text(MAX2_TEXT)
    real = cli.make_deployer

    def crash_on_second(config):
        deployer = real(config)
        seen = []
        solve = deployer.deploy

        def deploy(query, qid, *args):
            if qid not in seen:
                seen.append(qid)
            if len(seen) == 2:
                raise ReplayMissError("no recorded response")
            return solve(query, qid, *args)

        deployer.deploy = deploy
        return deployer

    monkeypatch.setattr(cli, "make_deployer", crash_on_second)
    out_dir, state = tmp_path / "out", tmp_path / "state.jsonl"
    code = main(["run", str(corpus), "--selector", "fixed:enumerator",
                 "--time-budget", "30", "--seed", "3", "--state", str(state),
                 "--out", str(out_dir)])
    assert code == cli.EXIT_ABORTED
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["records"]) == 1 and report["records"][0]["solved"]
    assert len((out_dir / "events.jsonl").read_text().splitlines()) == 1
    assert len(state.read_text().splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "solve"])
@pytest.mark.parametrize("config, needle", [
    ({"selector": "fixed:bogus"}, "bogus"),
    ({"selector": "fixed:gpt-p9"}, "prompt style"),
    ({"models": [{"name": "gpt", "styles": [7]}]}, "outside 1..6"),
    ({"models": [{"name": "gpt", "styles": []}]}, "no prompt styles"),
    ({"models": [{"name": "gpt", "styles": [2, 2]}]}, "repeats a prompt style"),
    ({"models": [{"name": "gpt"}, {"name": "gpt"}]}, "repeated: ['gpt']"),
    ({"models": [{"name": ""}]}, "needs a name"),
    ({"models": [{"name": "enumerator"}]}, "cannot be named 'enumerator'"),
    ({"selector": "fixed:gpt-p4"}, "'gpt', which is not configured"),
])
def test_config_that_cannot_mean_what_it_says_is_usage_error(
        command, config, needle, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "max2.sl").write_text(MAX2_TEXT)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    target = corpus if command == "run" else corpus / "max2.sl"
    code = main([command, str(target), "--config", str(cfg_path),
                 "--fixtures", str(tmp_path / "fixtures.jsonl"),
                 "--time-budget", "1", "--out", str(out_dir)])
    assert code == 2
    assert needle in capsys.readouterr().err
    assert not out_dir.exists()  # rejected before any query ran


@pytest.mark.parametrize("command, flags, config, needle", [
    ("run", ["--time-budget", "nan"], {}, "budgets must be finite and positive"),
    ("solve", ["--time-budget", "inf"], {}, "budgets must be finite and positive"),
    ("run", ["--cost-budget", "nan"], {}, "budgets must be finite and positive"),
    ("run", ["--runs", "0"], {}, "runs must be >= 1, got 0"),
    ("run", ["--runs", "-2"], {}, "runs must be >= 1, got -2"),
    ("solve", [], {"time_budget": math.nan}, "budgets must be finite and positive"),
    ("run", [], {"cost_budget": math.inf}, "budgets must be finite and positive"),
    ("run", [], {"runs": 0}, "runs must be >= 1"),
    ("run", [], {"grace": -1.0}, "grace must be finite and >= 0, got -1.0"),
    ("solve", [], {"grace": math.nan}, "grace must be finite and >= 0, got nan"),
    ("run", [], {"grace": math.inf}, "grace must be finite and >= 0, got inf"),
], ids=["time-flag-nan", "time-flag-inf", "cost-flag-nan", "runs-flag-0", "runs-flag-neg",
        "time-file-nan", "cost-file-inf", "runs-file-0", "grace-file-neg",
        "grace-file-nan", "grace-file-inf"])
def test_budget_that_cannot_hold_is_usage_error(command, flags, config, needle,
                                                 tmp_path, capsys):
    # NaN passes a `<= 0` check, and then no deadline ever fires
    target = _command_target(command, tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"selector": "fixed:enumerator", "reward": "time",
                                    **config}))
    out_dir = tmp_path / "out"
    code = main([command, str(target), "--config", str(cfg_path), *flags,
                 "--out", str(out_dir)])
    assert code == 2
    assert needle in capsys.readouterr().err
    assert not out_dir.exists()  # rejected before any query ran


def _command_target(command, tmp_path, text=MAX2_TEXT):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "q.sl").write_text(text)
    return corpus if command == "run" else corpus / "q.sl"


_STATE_RECORD = ('{"features": [1.0, 2.0], "solver": {"kind": "enumerator"}, '
                 '"reward": %s, "time": 1.0, "cost": 0.4}')


@pytest.mark.parametrize("command", ["run", "solve"])
@pytest.mark.parametrize("line, needle", [
    pytest.param(_STATE_RECORD % "2.0", "reward must be in [0, 1], got 2.0",
                 id="reward"),
    pytest.param("garbage", "JSONDecodeError", id="not-json"),
    pytest.param('{"features": [1.0], "solver": {"kind": "enumerator"}, '
                 '"reward": 1.0, "time": 1.0, "cost": 0.4}',
                 "a feature count unlike the first record's", id="dimensions"),
])
def test_malformed_state_file_is_an_input_error(command, line, needle,
                                                tmp_path, capsys):
    state = tmp_path / "state.jsonl"
    text = _STATE_RECORD % "0.5" + "\n" + line + "\n"
    state.write_text(text)
    out_dir = tmp_path / "out"
    code = main([command, str(_command_target(command, tmp_path)),
                 "--selector", "fixed:enumerator", "--time-budget", "30",
                 "--state", str(state), "--out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{state}, line 2: not a solve record" in err and needle in err
    assert state.read_text() == text  # left as it was
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "solve"])
@pytest.mark.parametrize("line, needle", [
    pytest.param('{"response_text": "x"}', "KeyError: 'key_hash'", id="no-key"),
    pytest.param("[1, 2]", "TypeError", id="not-an-object"),
    pytest.param('{"key_hash": "k", "response_text": 7}',
                 "response_text is not a string", id="no-text"),
    pytest.param('{"key_hash": "k", "response_text": "x", "output_tokens": "7"}',
                 "output_tokens '7' is not a non-negative integer", id="count-a-string"),
    pytest.param('{"key_hash": "k", "response_text": "x", "input_tokens": -3}',
                 "input_tokens -3 is not a non-negative integer", id="count-negative"),
])
def test_malformed_fixture_file_is_an_input_error(command, line, needle,
                                                  tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"models": [{"name": "gpt"}]}))
    fixtures = tmp_path / "fixtures.jsonl"
    # token counts may be missing or null
    fixtures.write_text('{"key_hash": "k", "response_text": "x", '
                        '"input_tokens": null}\n' + line + "\n")
    out_dir = tmp_path / "out"
    code = main([command, str(_command_target(command, tmp_path)),
                 "--config", str(cfg_path), "--fixtures", str(fixtures),
                 "--selector", "fixed:gpt-p4", "--out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{fixtures}, line 2: not a replay fixture" in err and needle in err
    assert not out_dir.exists()


def test_solve_stopped_by_an_error_exits_3(tmp_path, capsys):
    # a strict replay miss: a model is configured and the fixture file is empty
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"models": [{"name": "gpt"}]}))
    fixtures = tmp_path / "fixtures.jsonl"
    fixtures.write_text("")
    code = main(["solve", str(_command_target("solve", tmp_path)),
                 "--config", str(cfg_path), "--fixtures", str(fixtures),
                 "--selector", "fixed:gpt-p4", "--time-budget", "30"])
    assert code == 3
    captured = capsys.readouterr()
    assert "UNSOLVED" not in captured.out
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "no fixture for key" in errors[0]


_BAD_GRAMMAR_MAX2 = MAX2_TEXT.replace(
    "(synth-fun f ((v0 Int) (v1 Int)) Int)", """(synth-fun f ((v0 Int) (v1 Int)) Int
  ((I Int) (B Bool))
  ((I Int (v0 v1
           (+ I zz)
           (ite B I I)))
   (B Bool ((>= I I)))))""")


def test_malformed_user_grammar_is_a_malformed_query(tmp_path, capsys):
    path = _command_target("solve", tmp_path, _BAD_GRAMMAR_MAX2)
    assert main(["solve", str(path), "--selector", "fixed:enumerator",
                 "--time-budget", "30"]) == 2
    err = capsys.readouterr().err
    # the position is the file's, not one in the grammar text re-joined
    assert "undeclared symbol 'zz' (line 5, column 17)" in err
    out_dir = tmp_path / "out"
    assert main(["run", str(path.parent), "--selector", "fixed:enumerator",
                 "--time-budget", "30", "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["records"] == [] and report["skipped"] == [str(path)]


@pytest.mark.parametrize("rules, needle", [
    pytest.param("((I Int (v0 v1 (+ I J))) (J Int ((+ J J))))",
                 "dead nonterminals (derive no terminal string): ['J']", id="dead"),
    pytest.param("((I Int (J)) (J Int (I v0)))", "cyclic unit production",
                 id="cyclic"),
])
def test_rules_that_form_no_grammar_are_a_malformed_query(rules, needle, tmp_path,
                                                          capsys):
    text = MAX2_TEXT.replace("(synth-fun f ((v0 Int) (v1 Int)) Int)",
                             f"(synth-fun f ((v0 Int) (v1 Int)) Int {rules})")
    path = _command_target("solve", tmp_path, text)
    assert main(["solve", str(path), "--selector", "fixed:enumerator",
                 "--time-budget", "30"]) == 2
    assert needle in capsys.readouterr().err
    out_dir = tmp_path / "out"
    assert main(["run", str(path.parent), "--selector", "fixed:enumerator",
                 "--time-budget", "30", "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["records"] == [] and report["skipped"] == [str(path)]


def test_run_survives_too_deeply_nested_queries(tmp_path):
    # 250 levels are past the compiler's nesting limit, 600 past the
    # recursion limit in the enumerator and 3,000 past it in the parser
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for levels in (250, 600, 3000):
        (corpus / f"deep{levels}.sl").write_text(deep_query_text(levels))
    (corpus / "max2.sl").write_text(MAX2_TEXT)
    out_dir = tmp_path / "out"
    assert main(["run", str(corpus), "--selector", "fixed:enumerator",
                 "--time-budget", "1", "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    solved = {r["query_id"]: r["solved"] for r in report["records"]}
    assert solved == {str(corpus / "deep250.sl"): False,
                      str(corpus / "deep600.sl"): False,
                      str(corpus / "max2.sl"): True}
    assert report["skipped"] == [str(corpus / "deep3000.sl")]
