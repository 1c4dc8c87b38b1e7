"""The LLM repair loop: render, send, extract, verify, feed errors back.

A solver run makes up to 16 attempts (every assistant answer counts as one,
including failed extractions and the Lisp stage of two-stage styles) and stops
early on success, deadline, or cost exhaustion. Requests that would already
blow the cost slice are not sent.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..bandit import SolverId, estimate_cost
from ..outcomes import DeploymentOutcome
from ..sygus import Candidate, SygusError, SynthQuery, parse_define_fun, print_term
from ..verify import Verifier, evaluate, EvaluationError
from .backends import BackendError, ChatBackend, ReplayMissError
from .prompts import (
    EXTRACTION_FEEDBACK,
    Message,
    PromptStyle,
    SolvedExample,
    counterexample_feedback,
    render_initial_prompt,
    render_stage2_prompt,
)
from .transcript import ChatTranscript

log = logging.getLogger(__name__)

MAX_ATTEMPTS = 16


class ExtractionError(SygusError):
    pass


def extract_candidate(response_text: str,
                      expecting: str) -> Union[Candidate, str]:
    """First balanced (define-fun ...) parsed as a Candidate, or the first
    balanced (defun ...) returned as text, depending on `expecting`."""
    if expecting == "smtlib":
        marker = "(define-fun"
    elif expecting == "lisp":
        marker = "(defun"
    else:
        raise ValueError(f"expecting must be 'lisp' or 'smtlib', got {expecting!r}")
    spans = _balanced_spans(response_text, marker)
    if not spans:
        raise ExtractionError(f"no balanced {marker} ...) form in the response")
    if len(spans) > 1:
        log.info("response contained %d %s forms; taking the first",
                 len(spans), marker)
    text = spans[0]
    if expecting == "lisp":
        return text
    try:
        return parse_define_fun(text)
    except SygusError as exc:
        raise ExtractionError(f"cannot parse define-fun: {exc}") from exc


def _balanced_spans(text: str, marker: str) -> list[str]:
    spans = []
    start = 0
    while True:
        idx = text.find(marker, start)
        if idx < 0:
            return spans
        depth = 0
        for j in range(idx, len(text)):
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
                if depth == 0:
                    spans.append(text[idx:j + 1])
                    start = j + 1
                    break
        else:
            return spans  # unbalanced tail


def _signature_matches(cand: Candidate, query: SynthQuery) -> bool:
    fn = query.synth_fun
    return (cand.name == fn.name
            and cand.signature.param_sorts == fn.param_sorts
            and cand.return_sort == fn.return_sort)


@dataclass
class LlmRunResult:
    outcome: DeploymentOutcome
    transcript: ChatTranscript
    attempts: int


def solve_with_llm(query: SynthQuery, solver: SolverId,
                   time_slice: float, cost_slice: float,
                   backend: ChatBackend, verifier: Verifier,
                   few_shot_pool: Sequence[SolvedExample] = ()) -> LlmRunResult:
    """Run one LLM-prompt solver within its (time, cost) slice."""
    assert solver.kind == "llm" and solver.model and solver.style
    style = PromptStyle.from_index(solver.style)
    deadline = time.monotonic() + time_slice
    started = time.monotonic()

    transcript = ChatTranscript()
    for msg in render_initial_prompt(query, style, few_shot_pool):
        transcript.append(msg)
    stage = "lisp" if style.higher_resource_pl else "smtlib"

    def cost_now() -> float:
        return estimate_cost(transcript.input_tokens,
                             transcript.output_tokens, solver)

    def finish(solved: bool, candidate: Optional[Candidate],
               provenance: str = "", detail: str = "") -> LlmRunResult:
        elapsed = time.monotonic() - started
        outcome = DeploymentOutcome(
            solver=solver, solved=solved, candidate=candidate,
            time=elapsed, cost=cost_now(),
            verdict_provenance=provenance, detail=detail,
        )
        return LlmRunResult(outcome, transcript, transcript.assistant_count)

    attempts = 0
    while attempts < MAX_ATTEMPTS:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return finish(False, None, detail="time slice exhausted")
        if cost_now() > cost_slice:
            return finish(False, None, detail="cost slice exhausted")
        try:
            reply = backend.complete(solver.model, transcript.as_messages(),
                                     timeout=remaining)
        except ReplayMissError as exc:
            if exc.strict:
                raise
            return finish(False, None, detail=f"replay gap: {exc}")
        except BackendError as exc:
            return finish(False, None, detail=f"backend failure: {exc}")
        attempts += 1
        transcript.append(Message("assistant", reply.text),
                          tokens=reply.output_tokens)

        if stage == "lisp":
            try:
                extract_candidate(reply.text, "lisp")
            except ExtractionError:
                transcript.append(Message("user", EXTRACTION_FEEDBACK))
                continue
            transcript.append(render_stage2_prompt(style))
            stage = "smtlib"
            continue

        try:
            cand = extract_candidate(reply.text, "smtlib")
        except ExtractionError:
            transcript.append(Message("user", EXTRACTION_FEEDBACK))
            continue
        assert isinstance(cand, Candidate)
        if not _signature_matches(cand, query):
            fn = query.synth_fun
            transcript.append(Message(
                "user",
                f"Your previous answer defines the wrong function. Define "
                f"{fn.name} with parameters "
                + " ".join(f"({n} {s})" for n, s in fn.params)
                + f" returning {fn.return_sort}."))
            continue

        verdict = verifier.check(query, cand, deadline)
        if verdict.is_valid:
            return finish(True, cand, provenance=verdict.provenance)
        if verdict.is_counterexample:
            violated = _first_violated_constraint(query, cand,
                                                  verdict.assignment_dict())
            transcript.append(Message(
                "user",
                counterexample_feedback(verdict.assignment_dict(), violated)))
            continue
        return finish(False, None, provenance=verdict.provenance,
                      detail=f"verifier unknown: {verdict.reason}")

    return finish(False, None, detail="attempts exhausted")


def _first_violated_constraint(query: SynthQuery, cand: Candidate,
                               assignment: dict) -> Optional[str]:
    from ..sygus import apply_candidate

    sorts = dict(query.universals)
    for c in query.constraints:
        try:
            if not evaluate(apply_candidate(c, cand), assignment, sorts):
                return print_term(c)
        except EvaluationError:
            return print_term(c)
    return None
