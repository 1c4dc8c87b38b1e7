"""The LLM repair loop: render, send, extract, verify, feed errors back.

A solver run makes up to 16 attempts (every assistant answer counts as one,
including failed extractions and the Lisp stage of two-stage styles) and stops
early on success, deadline, or cost exhaustion: no request is sent once the
cost so far exceeds the slice, so the last reply can overrun it.
"""

from __future__ import annotations

import logging
import re
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..bandit import SolverId, estimate_cost
from ..outcomes import DeploymentOutcome
from ..sygus import Candidate, SygusError, SynthQuery, parse_define_fun, print_term
from ..verify import Verifier
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


_PARENS = re.compile(r"[()]")


def extract_candidate(response_text: str,
                      expecting: str) -> Union[Candidate, str]:
    """The (define-fun ...) at the first marker parsed as a Candidate, or the
    (defun ...) at the first marker returned as text, depending on
    `expecting`. If the first form does not close, no later one can."""
    if expecting == "smtlib":
        marker = "(define-fun"
    elif expecting == "lisp":
        marker = "(defun"
    else:
        raise ValueError(f"expecting must be 'lisp' or 'smtlib', got {expecting!r}")
    start = response_text.find(marker)
    depth = -1  # no marker
    if start >= 0:
        depth = 0
        for paren in _PARENS.finditer(response_text, start):
            depth += 1 if paren.group() == "(" else -1
            if not depth:
                break
    if depth:
        raise ExtractionError(f"no balanced {marker} ...) form in the response")
    end = paren.end()
    if response_text.find(marker, end) >= 0:
        log.info("response contained another %s form; taking the first", marker)
    text = response_text[start:end]
    if expecting == "lisp":
        return text
    try:
        return parse_define_fun(text)
    except SygusError as exc:
        raise ExtractionError(f"cannot parse define-fun: {exc}") from exc
    except RecursionError:
        raise ExtractionError("define-fun nested too deeply") from None


@dataclass
class LlmRunResult:
    outcome: DeploymentOutcome
    transcript: ChatTranscript

    @property
    def attempts(self) -> int:
        return self.transcript.assistant_count


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
    stage = "lisp" if style.higher_resource_pl else "smtlib"

    def cost_now() -> float:
        return estimate_cost(transcript.input_tokens, transcript.output_tokens)

    def finish(solved: bool, candidate: Optional[Candidate],
               provenance: str = "", detail: str = "",
               bounded: bool = False) -> LlmRunResult:
        elapsed = time.monotonic() - started
        outcome = DeploymentOutcome(
            solver=solver, solved=solved, candidate=candidate,
            time=elapsed, cost=cost_now(),
            verdict_provenance=provenance, detail=detail, verdict_bounded=bounded,
        )
        return LlmRunResult(outcome, transcript)

    try:
        opening = render_initial_prompt(query, style, few_shot_pool)
    except RecursionError:  # the natural-language rendering walks the terms
        return finish(False, None, detail="query nested too deeply")
    for msg in opening:
        transcript.append(msg)

    while transcript.assistant_count < MAX_ATTEMPTS:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return finish(False, None, detail="time slice exhausted")
        if cost_now() > cost_slice:
            return finish(False, None, detail="cost slice exhausted")
        try:
            reply = backend.complete(solver.model, tuple(transcript.messages),
                                     timeout=remaining)
        except ReplayMissError as exc:
            if exc.strict:
                raise
            return finish(False, None, detail=f"replay gap: {exc}")
        except BackendError as exc:
            return finish(False, None, detail=f"backend failure: {exc}")
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
        fn = query.synth_fun
        if not cand.signature.matches(fn):
            transcript.append(Message(
                "user",
                f"Your previous answer defines the wrong function. Define "
                f"{fn.name} with parameters "
                + " ".join(f"({n} {s})" for n, s in fn.params)
                + f" returning {fn.return_sort}."))
            continue

        verdict = verifier.check(query, cand, deadline)
        if verdict.is_valid:
            return finish(True, cand, provenance=verdict.provenance,
                          bounded=verdict.bounded)
        if verdict.is_counterexample:
            violated = print_term(query.constraints[verdict.violated])
            transcript.append(Message(
                "user", counterexample_feedback(verdict.assignment_dict(), violated)))
            continue
        return finish(False, None, provenance=verdict.provenance,
                      detail=f"verifier unknown: {verdict.reason}")

    return finish(False, None, detail="attempts exhausted")

