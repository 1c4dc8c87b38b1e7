import json
import socket
import tempfile
import time
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from synthsel.bandit import SolverId
from synthsel.llm import (
    BackendError,
    BackendReply,
    EMOTIONAL_PARAGRAPH,
    FEW_SHOT_COUNT,
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
    remember_example,
    render_initial_prompt,
    render_stage2_prompt,
    select_few_shot,
    solve_with_llm,
    translate_constraints_nl,
)
from synthsel.sygus import Candidate, parse_query, print_term
from synthsel.verify import Verifier

from conftest import MAX2_SOLUTION, ScriptedBackend, deep_query_text
from reference import balanced_spans


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


_TAGS = ["LIA", "BV", "PBE", "INV"]


@given(st.lists(st.sampled_from(_TAGS), max_size=40))
def test_bounded_few_shot_pool_selects_as_the_full_pool(tags):
    full, bounded = [], []
    for i, tag in enumerate(tags):
        example = SolvedExample(f"(problem {i})", "(s)", tag)
        full.append(example)
        remember_example(bounded, example)
        assert len(bounded) <= FEW_SHOT_COUNT * len(set(tags))
        for logic in _TAGS + ["NIA"]:
            assert select_few_shot(bounded, logic) == select_few_shot(full, logic)


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


def test_nl_renders_ite_negation_and_connectives():
    q = parse_query("""(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int)
(declare-var x Int)
(declare-var y Int)
(constraint (= (f x y) (ite (> x y) x (- y))))
(constraint (=> (and (>= x 0) (not (= y 0))) (>= (f x y) 0)))
(check-synth)
""")
    assert translate_constraints_nl(q) == (
        "1. f(x, y) equals (x if x is greater than y, otherwise the negation of y).\n"
        "2. if (x is greater than or equal to 0) and (it is not the case that "
        "(y equals 0)) then f(x, y) is greater than or equal to 0.")


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


def test_extract_reads_only_the_first_form():
    # the first form never closes, so neither does any form after it
    resp = "(define-fun f ((x Int)) Int (+ x 1) (define-fun f ((x Int)) Int 2)"
    with pytest.raises(ExtractionError):
        extract_candidate(resp, "smtlib")
    lisp = "(defun f (a) a) then (defun g (b) b"
    assert extract_candidate(lisp, "lisp") == "(defun f (a) a)"
    assert extract_candidate("x) (defun f (a) (g a)) (", "lisp") == "(defun f (a) (g a))"


@given(st.lists(st.sampled_from(["(defun", "(", ")", " a", "\n"]), max_size=30))
def test_extract_matches_the_balanced_span_walk(pieces):
    text = "".join(pieces)
    spans = balanced_spans(text, "(defun")
    if spans:
        assert extract_candidate(text, "lisp") == spans[0]
    else:
        with pytest.raises(ExtractionError):
            extract_candidate(text, "lisp")


def _nested(levels):
    """max2's answer wrapped in `levels` levels of (+ 0 ...)."""
    return ("(define-fun f ((v0 Int) (v1 Int)) Int " + "(+ 0 " * levels
            + "(ite (>= v0 v1) v0 v1)" + ")" * levels + ")")


@pytest.mark.parametrize("levels", [600, 3000])
def test_extract_too_deep_an_answer_fails(levels):
    with pytest.raises(ExtractionError, match="nested too deeply"):
        extract_candidate(_nested(levels), "smtlib")


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
    t.append(Message("system", "be brief"))
    t.append(Message("assistant", "(ite (> a b) a b)"))
    assert t.messages[-1] == Message("assistant", "(ite (> a b) a b)")
    assert t.input_tokens == sum(count_tokens(m.content) for m in t.messages
                                 if m.role != "assistant")
    assert t.output_tokens == 99 + count_tokens("(ite (> a b) a b)")
    assert t.assistant_count == 2


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


@pytest.mark.parametrize("recorded", [0, 1])
def test_a_torn_fixture_line_is_dropped_and_cut_before_the_next_append(recorded,
                                                                     tmp_path):
    # a recording run killed mid-append leaves a torn last line: replay reads
    # the entries before it, and the next recorded reply starts its own line
    fixture = tmp_path / "fx.jsonl"
    fixture.write_text("")
    msgs = [[Message("user", "one")], [Message("user", "two")]]
    for m in msgs[:recorded]:
        RecordingBackend(ScriptedBackend(["first"]), fixture).complete("m", m)
    with open(fixture, "a", encoding="utf-8") as fh:
        fh.write('{"key_hash": "ab')
    replay = ReplayBackend(fixture)
    assert [replay.complete("m", m).text for m in msgs[:recorded]] == ["first"] * recorded
    RecordingBackend(ScriptedBackend(["second"]), fixture).complete("m", msgs[1])
    assert len(fixture.read_text().splitlines()) == 1 + recorded
    replay = ReplayBackend(fixture)
    assert replay.complete("m", msgs[1]).text == "second"
    assert [replay.complete("m", m).text for m in msgs[:recorded]] == ["first"] * recorded


def test_replay_miss_is_distinct_error(tmp_path):
    fixture = tmp_path / "fx.jsonl"
    fixture.write_text("")
    replay = ReplayBackend(fixture)
    with pytest.raises(ReplayMissError):
        replay.complete("m", [Message("user", "never recorded")])


@pytest.mark.parametrize("count", ['"7"', "-3", "true", "1.5", "[1]"])
@pytest.mark.parametrize("name", ["input_tokens", "output_tokens"])
def test_replay_fixture_with_a_bad_token_count_is_rejected_on_load(name, count,
                                                                   tmp_path):
    fixture = tmp_path / "fx.jsonl"
    good = '{"key_hash": "k", "response_text": "x", "input_tokens": 0}'
    fixture.write_text(f'{good}\n{{"key_hash": "k", "response_text": "x", '
                       f'"{name}": {count}}}\n')
    with pytest.raises(ValueError, match=f"fx.jsonl, line 2: not a replay fixture "
                                         f".*{name} .* not a non-negative integer"):
        ReplayBackend(fixture)


def test_fixture_key_sensitivity():
    m = [Message("user", "hello")]
    assert fixture_key("a", m) != fixture_key("b", m)
    assert fixture_key("a", m) != fixture_key("a", [Message("user", "hello!")])
    assert fixture_key("a", m) == fixture_key("a", [Message("user", "hello")])


_TEXTS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=30),
    st.lists(st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
                              "é", "\u2028", "\U0001f642", "[", "]", ",", "a"]),
             max_size=8).map("".join),
)
_MESSAGES = st.builds(Message, st.one_of(st.sampled_from(["system", "user", "assistant"]),
                                         _TEXTS), _TEXTS)
_STEPS = ("grow", "grow", "replace last", "other model", "shorter", "equal copies", "again")


@st.composite
def _dialogue_calls(draw):
    """(model, messages) calls on two interleaved dialogues, one per model:
    each call grows its dialogue, replaces its last message, goes to another
    model, sends a shorter list, sends equal but new `Message` objects, or
    sends the same list again."""
    models = ["gpt", "llama"]
    dialogues = [[draw(_MESSAGES)], [draw(_MESSAGES)]]
    calls = []
    for _ in range(draw(st.integers(1, 10))):
        d = draw(st.integers(0, 1))
        model, messages = models[d], dialogues[d]
        step = draw(st.sampled_from(_STEPS))
        if step == "grow":
            messages.extend(draw(st.lists(_MESSAGES, min_size=1, max_size=2)))
        elif step == "replace last":
            messages[-1] = draw(_MESSAGES)
        elif step == "other model":
            model = draw(_TEXTS)
        elif step == "shorter":
            messages = messages[:draw(st.integers(0, len(messages) - 1))]
        elif step == "equal copies":
            messages = [Message(m.role, m.content) for m in messages]
        calls.append((model, tuple(messages) if draw(st.booleans()) else list(messages)))
    return calls


class _Replies:
    """A live backend stand-in: reply i to the i-th call."""

    def __init__(self):
        self.calls = 0

    def complete(self, model, messages, timeout=None):
        self.calls += 1
        return BackendReply(f"reply {self.calls}", 3, self.calls)


class _KeyLog(dict):
    """ReplayBackend's fixture table that logs each key looked up and
    answers every one."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def get(self, key, default=None):
        self.keys.append(key)
        return [{"response_text": "r"}]


@given(_dialogue_calls())
def test_replay_and_record_keys_are_fixture_keys(calls):
    want = [fixture_key(model, messages) for model, messages in calls]
    replay = ReplayBackend("/nonexistent/fixtures.jsonl")
    replay._entries = _KeyLog()
    for model, messages in calls:
        replay.complete(model, messages)
    assert replay._entries.keys == want
    with tempfile.TemporaryDirectory() as tmp:
        fixture = Path(tmp) / "fx.jsonl"
        recorder = RecordingBackend(_Replies(), fixture)
        for model, messages in calls:
            recorder.complete(model, messages)
        lines = fixture.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["key_hash"] for line in lines] == want


@given(_dialogue_calls())
def test_every_recorded_call_replays_from_its_fixture(calls):
    with tempfile.TemporaryDirectory() as tmp:
        fixture = Path(tmp) / "fx.jsonl"
        recorder = RecordingBackend(_Replies(), fixture)
        recorded = [recorder.complete(model, messages) for model, messages in calls]
        replay = ReplayBackend(fixture)
        assert [replay.complete(model, messages) for model, messages in calls] == recorded


def test_http_backend(chat_server, monkeypatch):
    chat_server.reply = lambda path: {
        "choices": [{"message": {"role": "assistant", "content": "the answer"}}],
        "usage": {"prompt_tokens": 12, "completion_tokens": 7},
    }
    monkeypatch.setenv("TEST_CHAT_KEY", "sk-something")
    backend = HttpBackend(endpoint=chat_server.url(), api_key_env="TEST_CHAT_KEY")
    reply = backend.complete("test-model", [Message("user", "hi")], timeout=5)
    assert reply.text == "the answer"
    assert reply.input_tokens == 12 and reply.output_tokens == 7
    sent = json.loads(chat_server.seen[0].body)
    assert sent["model"] == "test-model"
    assert sent["messages"] == [{"role": "user", "content": "hi"}]


@pytest.mark.parametrize("key", ["sk-something", "", None])
def test_http_backend_sends_the_json_body_and_headers(key, chat_server, monkeypatch):
    if key is None:
        monkeypatch.delenv("TEST_CHAT_KEY", raising=False)
    else:
        monkeypatch.setenv("TEST_CHAT_KEY", key)
    backend = HttpBackend(endpoint=chat_server.url("/v1/chat/completions"),
                          api_key_env="TEST_CHAT_KEY")
    reply = backend.complete("test-model", [Message("system", "be brief"),
                                            Message("user", "hi \u00e9")], timeout=5)
    assert reply == BackendReply("from /v1/chat/completions")
    (post,) = chat_server.seen
    assert post.path == "/v1/chat/completions"
    assert post.body == (b'{"model": "test-model", "messages": [{"role": "system", '
                         b'"content": "be brief"}, {"role": "user", "content": '
                         b'"hi \\u00e9"}], "temperature": 0.2}')
    assert post.headers["Content-Type"] == "application/json"
    assert post.headers["Authorization"] == ("Bearer sk-something" if key else None)


def test_http_backend_malformed_response(chat_server):
    chat_server.reply = lambda path: {"nope": True}
    backend = HttpBackend(endpoint=chat_server.url())
    with pytest.raises(BackendError):
        backend.complete("m", [Message("user", "hi")], timeout=5)


def _completion(content="x", **usage):
    return {"choices": [{"message": {"content": content}}], "usage": usage}


@pytest.mark.parametrize("payload", [
    pytest.param(b"<html>busy</html>", id="not-json"),
    pytest.param([1], id="not-an-object"),
    pytest.param(_completion(5), id="content-not-a-string"),
    pytest.param({**_completion(), "usage": [1]}, id="usage-not-an-object"),
    pytest.param(_completion(completion_tokens="7"), id="count-a-string"),
    pytest.param(_completion(prompt_tokens=-3), id="count-negative"),
    pytest.param(_completion(prompt_tokens=True), id="count-a-bool"),
    pytest.param(_completion(completion_tokens=1.5), id="count-a-float"),
])
def test_http_backend_rejects_a_malformed_reply_without_retry(payload, chat_server):
    chat_server.reply = lambda path: payload
    backend = HttpBackend(endpoint=chat_server.url())
    with pytest.raises(BackendError):
        backend.complete("m", [Message("user", "hi")], timeout=5)
    assert len(chat_server.seen) == 1


def test_http_backend_reads_a_null_content_and_missing_counts(chat_server):
    chat_server.reply = lambda path: {"choices": [{"message": {"content": None}}],
                                      "usage": None}
    backend = HttpBackend(endpoint=chat_server.url())
    assert backend.complete("m", [Message("user", "hi")], timeout=5) == BackendReply("")


def test_http_backend_error_status_is_not_retried(chat_server):
    chat_server.status = 500
    backend = HttpBackend(endpoint=chat_server.url())
    with pytest.raises(BackendError, match="HTTP 500"):
        backend.complete("m", [Message("user", "hi")], timeout=5)
    assert len(chat_server.seen) == 1


@pytest.mark.parametrize("delays, posts", [
    ([1.5], 1),        # the slow first post spends the whole budget: no retry
    ([None, 1.5], 2),  # dropped at once, so one retry, which times out
])
def test_http_backend_timeout_retries_within_the_budget(delays, posts, chat_server):
    chat_server.delays = list(delays)
    backend = HttpBackend(endpoint=chat_server.url())
    started = time.monotonic()
    with pytest.raises(BackendError, match="within 0.3 s"):
        backend.complete("m", [Message("user", "hi")], timeout=0.3)
    assert time.monotonic() - started < 1.0  # did not wait for the slow reply
    assert len(chat_server.seen) == posts


def test_http_backend_refused_connection_is_retried_once(monkeypatch):
    with socket.socket() as probe:  # a local port that nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    timeouts = []
    urlopen = urllib.request.urlopen

    def counting_urlopen(request, timeout):
        timeouts.append(timeout)
        return urlopen(request, timeout=timeout)

    monkeypatch.setattr(urllib.request, "urlopen", counting_urlopen)
    backend = HttpBackend(endpoint=f"http://127.0.0.1:{port}/v1/chat")
    with pytest.raises(BackendError, match="within 5"):
        backend.complete("m", [Message("user", "hi")], timeout=5)
    assert len(timeouts) == 2 and timeouts[1] <= timeouts[0] == 5


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def monotonic(self):
        return self.now


@pytest.mark.parametrize("first_takes, retry_timeouts", [
    (1.5, [0.5]),   # the retry gets what is left of the 2 s budget
    (2.0, []),      # nothing left: no second request
])
def test_http_backend_retry_stays_within_the_budget(first_takes, retry_timeouts,
                                                    monkeypatch):
    from synthsel.llm import backends

    clock = _FakeClock()
    timeouts = []

    def urlopen(request, timeout):
        timeouts.append(timeout)
        clock.now += first_takes if len(timeouts) == 1 else timeout
        raise TimeoutError("timed out")

    monkeypatch.setattr(backends, "time", clock, raising=False)
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    backend = HttpBackend(endpoint="http://127.0.0.1:9/v1/chat")
    with pytest.raises(BackendError):
        backend.complete("m", [Message("user", "hi")], timeout=2.0)
    assert timeouts == [2.0] + retry_timeouts
    assert clock.now - 100.0 <= 2.0


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


LISP = "(defun f (v0 v1) v0)"

# the replay keys of the dialogues below: recorded fixtures replay only while
# every prompt and feedback message stays byte for byte the same
PINNED_KEYS = {
    4: ["41f8d941b14e878e71e12835c2ab7b41fd0f8d18c4af069d9a74ba3451448773",
        "56f780d47ff3e519528abac761b6722abac2d7ef36366509e2255961f546bdfd"],
    1: ["d60f6334159ef6761e3fed830dca1f8b015cb366cb028d837c17a30cbb066960",
        "8a7e4a259bf033c4599d47daaf33d34913d4a0a2723cf049a2e22615786870b8",
        "e80b06b9cfe8da5c27cb03f2ab8c35f7c8e5e45e5ed5c910722887acb79e5da9"],
}


@pytest.mark.parametrize("style, replies", [(4, [WRONG, GOOD]), (1, [LISP, WRONG, GOOD])])
def test_feedback_names_the_violated_constraint_and_keys_stay_pinned(
        max2_query, style, replies):
    result, backend = _run(max2_query, replies, style=style)
    assert result.outcome.solved
    # v0 is max2 wherever v0 >= v1: the second constraint is the first one false
    violated = print_term(max2_query.constraints[1])
    assert violated == "(>= (f v0 v1) v1)"
    assert backend.calls[-1][-1] == Message(
        "user", "Your previous answer was incorrect. On inputs v0 = -32, v1 = -31, "
                f"constraint {violated} is violated.")
    assert [fixture_key("m", call) for call in backend.calls] == PINNED_KEYS[style]


@pytest.mark.parametrize("levels", [250, 400])
def test_loop_survives_an_answer_too_deep_to_verify(max2_query, levels):
    # 250 levels parse, but the sweep's source then nests more than CPython's
    # 200 parentheses; at 400, substitution passes the recursion limit
    result, backend = _run(max2_query, [_nested(levels), GOOD])
    assert not result.outcome.solved
    assert result.outcome.detail == "verifier unknown: formula nested too deeply"
    assert len(backend.calls) == 1


def test_loop_survives_an_answer_too_deep_to_parse(max2_query):
    result, _ = _run(max2_query, [_nested(600), GOOD])
    assert result.outcome.solved
    assert result.attempts == 2
    assert any("did not contain a parsable" in m.content
               for m in result.transcript.messages if m.role == "user")


@pytest.mark.parametrize("style", range(1, 7))
def test_loop_survives_a_query_too_deep_to_render(style):
    # the natural-language rendering (styles 1, 2 and 6) passes the
    # recursion limit at 600 levels; 3-5 render the query, and the verifier
    # then finds it too deep
    query = parse_query(deep_query_text(600))
    answer = "(defun f (x) x)\n(define-fun f ((x Int)) Int x)"
    result, backend = _run(query, [answer, answer], style=style)
    assert not result.outcome.solved
    kind = PromptStyle.from_index(style)
    if kind.natural_language:
        assert result.outcome.detail == "query nested too deeply"
        assert backend.calls == []
        assert result.outcome.cost == 0.0
        assert (result.transcript.input_tokens, result.transcript.output_tokens) == (0, 0)
    else:
        assert result.outcome.detail == "verifier unknown: formula nested too deeply"
        assert len(backend.calls) == 1 + kind.higher_resource_pl  # the Lisp stage


_BV = "(_ BitVec 8)"
_BV_QUERY = (f"(set-logic BV)\n(synth-fun f ((x {_BV}) (y {_BV})) {_BV})\n"
             f"(declare-var x {_BV})\n(declare-var y {_BV})\n"
             f"(constraint (= (f x y) (bvand x (bvnot y))))\n(check-synth)\n")
# max2's answer minus (mod v0 1): outside the LIA decider, so only swept
_MAX2_SWEPT = ("(define-fun f ((v0 Int) (v1 Int)) Int "
               "(- (ite (>= v0 v1) v0 v1) (mod v0 1)))")


@pytest.mark.parametrize("text, answer, bounded", [
    (_BV_QUERY, f"(define-fun f ((x {_BV}) (y {_BV})) {_BV} (bvand (bvnot y) x))", False),
    (None, _MAX2_SWEPT, True),
], ids=["bv-exact", "lia-swept"])
def test_loop_outcome_says_whether_the_verdict_was_bounded(max2_query, text, answer,
                                                           bounded):
    result, _ = _run(parse_query(text) if text else max2_query, [answer])
    assert result.outcome.solved
    assert result.outcome.verdict_bounded is bounded


def test_outcome_solved_candidate_verified(max2_query):
    # any outcome marked solved carries a candidate the verifier accepted
    result, _ = _run(max2_query, [GOOD])
    assert result.outcome.candidate is not None
    assert Verifier().check(max2_query, result.outcome.candidate).is_valid
