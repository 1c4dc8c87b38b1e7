import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, strategies as st

from synthsel.bandit import SolverId
from synthsel.llm import (
    EMOTIONAL_PARAGRAPH,
    ExtractionError,
    HttpBackend,
    MAX_ATTEMPTS,
    Message,
    PromptStyle,
    ROLE_SENTENCE,
    RecordingBackend,
    ReplayBackend,
    ReplayMissError,
    STYLE_MATRIX,
    SolvedExample,
    ChatTranscript,
    count_tokens,
    extract_candidate,
    fixture_key,
    render_initial_prompt,
    render_stage2_prompt,
    select_few_shot,
    solve_with_llm,
    translate_constraints_nl,
)
from synthsel.sygus import Candidate, parse_query, print_term
from synthsel.verify import Verifier

from conftest import MAX2_SOLUTION, ScriptedBackend


# ---------------------------------------------------------------------------
# prompt styles
# ---------------------------------------------------------------------------

def test_style_matrix():
    flags = {
        i: (s.natural_language, s.higher_resource_pl, s.roles,
            s.emotional_stimuli, s.few_shot)
        for i, s in STYLE_MATRIX.items()
    }
    assert flags == {
        1: (True, True, False, False, False),
        2: (True, True, False, False, True),
        3: (False, True, False, False, False),
        4: (False, False, False, False, False),
        5: (False, True, True, False, False),
        6: (True, True, True, True, False),
    }


def test_style_index_validation():
    with pytest.raises(ValueError):
        PromptStyle.from_index(7)


def _full_text(messages):
    return "\n".join(m.content for m in messages)


def test_style4_contains_raw_query(max3_query):
    msgs = render_initial_prompt(max3_query, STYLE_MATRIX[4])
    assert len(msgs) == 1
    assert msgs[0].role == "user"
    body = msgs[0].content
    assert "(constraint (>= (f v0 v1 v2) v0))" in body
    assert ROLE_SENTENCE not in body
    assert EMOTIONAL_PARAGRAPH not in body
    assert "with Lisp" not in body
    assert "is greater than or equal to" not in body


def test_style6_full_dress(max3_query):
    msgs = render_initial_prompt(max3_query, STYLE_MATRIX[6])
    body = _full_text(msgs)
    assert body.startswith(ROLE_SENTENCE)
    assert EMOTIONAL_PARAGRAPH in body
    assert "with Lisp" in body
    assert "is greater than or equal to" in body
    assert "(constraint" not in body  # NL replaced the raw constraints


def test_style2_few_shot_three_examples(max3_query):
    pool = [SolvedExample(f"(problem {i})", f"(define-fun g{i} () Int {i})",
                          "LIA") for i in range(5)]
    msgs = render_initial_prompt(max3_query, STYLE_MATRIX[2], pool)
    body = _full_text(msgs)
    assert body.count("Example ") == 3
    # most recent same-logic examples win
    assert "(problem 4)" in body and "(problem 2)" in body
    assert "(problem 0)" not in body


def test_few_shot_empty_pool_proceeds(max3_query):
    msgs = render_initial_prompt(max3_query, STYLE_MATRIX[2], [])
    assert "Example " not in _full_text(msgs)


def test_select_few_shot_logic_preference():
    pool = [SolvedExample("a", "s", "BV"), SolvedExample("b", "s", "LIA"),
            SolvedExample("c", "s", "BV"), SolvedExample("d", "s", "LIA")]
    chosen = select_few_shot(pool, "LIA")
    assert [e.query_text for e in chosen] == ["d", "b", "c"]


def test_prompt_determinism(max3_query):
    pool = [SolvedExample("(p)", "(s)", "LIA")]
    a = render_initial_prompt(max3_query, STYLE_MATRIX[6], pool)
    b = render_initial_prompt(max3_query, STYLE_MATRIX[6], pool)
    assert a == b


def test_stage2_prompt_translation_examples():
    plain = render_stage2_prompt(STYLE_MATRIX[1])
    assert "Start the function with `(define-fun`" in plain.content
    assert "Translation example" not in plain.content
    few = render_stage2_prompt(STYLE_MATRIX[2])
    assert few.content.count("Translation example") == 3


# ---------------------------------------------------------------------------
# natural-language constraint rendering
# ---------------------------------------------------------------------------

def test_nl_simple(max3_query):
    text = translate_constraints_nl(max3_query)
    assert "f(v0, v1, v2) is greater than or equal to v0" in text
    assert text.splitlines()[0].startswith("1. ")


def test_nl_empty():
    q = parse_query("""(set-logic LIA)
(synth-fun f ((x Int)) Int)
(declare-var x Int)
(check-synth)
""")
    assert translate_constraints_nl(q) == "There are no constraints."


def test_nl_disjunction_shape(max3_query):
    # the three-way disjunction renders with two "or"s and three "equals"
    text = translate_constraints_nl(max3_query).splitlines()[-1]
    assert text.count(" or ") == 2
    assert text.count("equals") == 3


def test_nl_unknown_operator_falls_back():
    q = parse_query("""(set-logic BV)
(synth-fun f ((a (_ BitVec 4))) (_ BitVec 4))
(declare-var a (_ BitVec 4))
(constraint (bvult (f a) (bvadd a #b0001)))
(check-synth)
""")
    text = translate_constraints_nl(q)
    assert "(bvult" in text  # prefix form kept inline


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_extract_define_fun_with_prose():
    resp = ("here you go: (define-fun f ((v0 Int)) Int v0) hope it helps")
    cand = extract_candidate(resp, "smtlib")
    assert isinstance(cand, Candidate)
    assert print_term(cand.body) == "v0"


def test_extract_prose_only_fails():
    with pytest.raises(ExtractionError):
        extract_candidate("Sorry, I cannot help with that.", "smtlib")


def test_extract_takes_first_of_two():
    resp = ("(define-fun f ((x Int)) Int 1) and also "
            "(define-fun f ((x Int)) Int 2)")
    cand = extract_candidate(resp, "smtlib")
    assert print_term(cand.body) == "1"


def test_extract_lisp():
    text = "```\n(defun f (a b) (if (> a b) a b))\n```"
    got = extract_candidate(text, "lisp")
    assert got.startswith("(defun f")


def test_extract_unbalanced_fails():
    with pytest.raises(ExtractionError):
        extract_candidate("(define-fun f ((x Int)) Int (+ x 1", "smtlib")


def test_extract_bad_body_fails():
    with pytest.raises(ExtractionError):
        extract_candidate("(define-fun f ((x Int)) Int (launch x))", "smtlib")


# ---------------------------------------------------------------------------
# token counting and transcripts
# ---------------------------------------------------------------------------

def test_count_tokens_examples():
    assert count_tokens("(+ 1 2)") == 5
    assert count_tokens("") == 0
    assert count_tokens("hello world") == 2


@given(st.text(alphabet=" ()abc\n", max_size=40),
       st.text(alphabet=" ()abc\n", max_size=40))
def test_count_tokens_superadditive(a, b):
    diff = count_tokens(a) + count_tokens(b) - count_tokens(a + b)
    assert 0 <= diff <= 1


def test_transcript_totals():
    t = ChatTranscript()
    t.append(Message("user", "(+ 1 2)"))
    t.append(Message("assistant", "(- 3 4)"), tokens=99)
    t.append(Message("user", "again"))
    assert t.input_tokens == 5 + 1
    assert t.output_tokens == 99
    assert t.assistant_count == 1
    assert sum(m.tokens for m in t.messages) == t.input_tokens + t.output_tokens


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

def test_replay_round_trip(tmp_path):
    fixture = tmp_path / "fx.jsonl"
    inner = ScriptedBackend(["first answer", "second answer"])
    rec = RecordingBackend(inner, fixture)
    msgs1 = [Message("user", "prompt one")]
    msgs2 = [Message("user", "prompt one"), Message("assistant", "first answer"),
             Message("user", "more")]
    r1 = rec.complete("m", msgs1)
    r2 = rec.complete("m", msgs2)
    replay = ReplayBackend(fixture)
    assert replay.complete("m", msgs1).text == r1.text
    assert replay.complete("m", msgs2).text == r2.text


def test_replay_miss_is_distinct_error(tmp_path):
    fixture = tmp_path / "fx.jsonl"
    fixture.write_text("")
    replay = ReplayBackend(fixture)
    with pytest.raises(ReplayMissError):
        replay.complete("m", [Message("user", "never recorded")])


def test_fixture_key_sensitivity():
    m = [Message("user", "hello")]
    assert fixture_key("a", m) != fixture_key("b", m)
    assert fixture_key("a", m) != fixture_key("a", [Message("user", "hello!")])
    assert fixture_key("a", m) == fixture_key("a", [Message("user", "hello")])


class _ChatHandler(BaseHTTPRequestHandler):
    response_payload: dict = {}
    requests_seen: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(body)
        payload = json.dumps(type(self).response_payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()


def test_http_backend(chat_server, monkeypatch):
    _ChatHandler.response_payload = {
        "choices": [{"message": {"role": "assistant", "content": "the answer"}}],
        "usage": {"prompt_tokens": 12, "completion_tokens": 7},
    }
    _ChatHandler.requests_seen = []
    monkeypatch.setenv("TEST_CHAT_KEY", "sk-something")
    port = chat_server.server_address[1]
    backend = HttpBackend(endpoint=f"http://127.0.0.1:{port}/v1/chat",
                          api_key_env="TEST_CHAT_KEY")
    reply = backend.complete("test-model", [Message("user", "hi")], timeout=5)
    assert reply.text == "the answer"
    assert reply.input_tokens == 12 and reply.output_tokens == 7
    sent = _ChatHandler.requests_seen[0]
    assert sent["model"] == "test-model"
    assert sent["messages"] == [{"role": "user", "content": "hi"}]


def test_http_backend_malformed_response(chat_server):
    from synthsel.llm import BackendError

    _ChatHandler.response_payload = {"nope": True}
    port = chat_server.server_address[1]
    backend = HttpBackend(endpoint=f"http://127.0.0.1:{port}/v1/chat")
    with pytest.raises(BackendError):
        backend.complete("m", [Message("user", "hi")], timeout=5)


# ---------------------------------------------------------------------------
# the repair loop
# ---------------------------------------------------------------------------

GOOD = MAX2_SOLUTION
WRONG = "(define-fun f ((v0 Int) (v1 Int)) Int v0)"


def _run(query, responses, style=4, time_slice=30.0, cost_slice=1e9,
         output_tokens=None):
    backend = ScriptedBackend(responses, output_tokens=output_tokens)
    result = solve_with_llm(
        query, SolverId.llm("m", style), time_slice, cost_slice,
        backend=backend, verifier=Verifier())
    return result, backend


def test_loop_happy_path(max2_query):
    result, backend = _run(max2_query, [GOOD])
    assert result.outcome.solved
    assert result.attempts == 1
    assert len(backend.calls) == 1


def test_loop_wrong_then_right(max2_query):
    result, backend = _run(max2_query, [WRONG, GOOD])
    assert result.outcome.solved
    assert result.attempts == 2
    feedback = [m for m in result.transcript.messages
                if m.role == "user" and "incorrect" in m.content]
    assert feedback and "On inputs" in feedback[0].content


def test_loop_sixteen_wrong_answers(max2_query):
    result, backend = _run(max2_query, [WRONG] * 20)
    assert not result.outcome.solved
    assert result.attempts == MAX_ATTEMPTS == 16
    assert len(backend.calls) == 16
    assert result.transcript.assistant_count == 16


def test_loop_extraction_failure_consumes_attempt(max2_query):
    result, _ = _run(max2_query, ["no code here", GOOD])
    assert result.outcome.solved
    assert result.attempts == 2
    assert any("did not contain a parsable" in m.content
               for m in result.transcript.messages if m.role == "user")


def test_loop_signature_mismatch_feedback(max2_query):
    bad_sig = "(define-fun g ((a Int)) Int a)"
    result, _ = _run(max2_query, [bad_sig, GOOD])
    assert result.outcome.solved
    assert any("wrong function" in m.content
               for m in result.transcript.messages if m.role == "user")


def test_loop_two_stage_lisp(max2_query):
    lisp = "(defun f (v0 v1) (if (>= v0 v1) v0 v1))"
    result, backend = _run(max2_query, [lisp, GOOD], style=1)
    assert result.outcome.solved
    assert result.attempts == 2
    stage2 = [m for m in result.transcript.messages
              if m.role == "user" and "convert the Lisp function" in m.content]
    assert len(stage2) == 1


def test_loop_lisp_extraction_failure(max2_query):
    result, _ = _run(max2_query, ["prose", "(defun f (v0 v1) v0)", WRONG, GOOD],
                     style=1)
    assert result.outcome.solved
    assert result.attempts == 4


def test_loop_cost_exhaustion(max2_query):
    result, backend = _run(max2_query, [GOOD], cost_slice=1.0)
    assert not result.outcome.solved
    assert "cost slice exhausted" in result.outcome.detail
    assert len(backend.calls) == 0  # the request was never sent


def test_loop_deadline_exhaustion(max2_query):
    result, backend = _run(max2_query, [GOOD], time_slice=-1.0)
    assert not result.outcome.solved
    assert "time slice" in result.outcome.detail


def test_loop_cost_accounting(max2_query):
    result, _ = _run(max2_query, [WRONG, GOOD], output_tokens=[50, 60])
    t = result.transcript
    assert t.output_tokens == 110
    assert result.outcome.cost == t.input_tokens + 3 * t.output_tokens


def test_loop_replay_fixture_round_trip(max2_query, tmp_path):
    # record against a scripted stand-in, then replay bit-for-bit
    fixture = tmp_path / "fx.jsonl"
    scripted = ScriptedBackend([WRONG, GOOD], output_tokens=[11, 13])
    recorder = RecordingBackend(scripted, fixture)
    solver = SolverId.llm("m", 4)
    rec_result = solve_with_llm(max2_query, solver, 30.0, 1e9,
                                backend=recorder, verifier=Verifier())
    assert rec_result.outcome.solved

    replay = ReplayBackend(fixture)
    rep_result = solve_with_llm(max2_query, solver, 30.0, 1e9,
                                backend=replay, verifier=Verifier())
    assert rep_result.outcome.solved
    assert rep_result.attempts == rec_result.attempts
    assert rep_result.outcome.cost == rec_result.outcome.cost
    assert [m.content for m in rep_result.transcript.messages] == \
        [m.content for m in rec_result.transcript.messages]


def test_loop_replay_miss_modes(max2_query, tmp_path):
    fixture = tmp_path / "empty.jsonl"
    fixture.write_text("")
    solver = SolverId.llm("m", 4)
    with pytest.raises(ReplayMissError):
        solve_with_llm(max2_query, solver, 30.0, 1e9,
                       backend=ReplayBackend(fixture), verifier=Verifier())
    tolerant = solve_with_llm(max2_query, solver, 30.0, 1e9,
                              backend=ReplayBackend(fixture, strict=False),
                              verifier=Verifier())
    assert not tolerant.outcome.solved
    assert "replay gap" in tolerant.outcome.detail


def test_outcome_solved_candidate_verified(max2_query):
    # any outcome marked solved carries a candidate the verifier accepted
    result, _ = _run(max2_query, [GOOD])
    assert result.outcome.candidate is not None
    assert Verifier().check(max2_query, result.outcome.candidate).is_valid
