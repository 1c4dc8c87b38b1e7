"""LLM-backed solvers: prompt styles, chat backends, and the repair loop."""

from .prompts import (
    EMOTIONAL_PARAGRAPH,
    FEW_SHOT_COUNT,
    LISP_STAGE2_PROMPT,
    Message,
    PromptStyle,
    ROLE_SENTENCE,
    STYLE_MATRIX,
    SolvedExample,
    remember_example,
    render_initial_prompt,
    render_stage2_prompt,
    select_few_shot,
    translate_constraints_nl,
)
from .transcript import ChatTranscript, count_tokens
from .backends import (
    BackendError,
    BackendReply,
    ChatBackend,
    HttpBackend,
    ModelRouter,
    RecordingBackend,
    ReplayBackend,
    ReplayMissError,
    fixture_key,
)
from .solve import (
    ExtractionError,
    LlmRunResult,
    MAX_ATTEMPTS,
    extract_candidate,
    solve_with_llm,
)

__all__ = [
    "EMOTIONAL_PARAGRAPH", "FEW_SHOT_COUNT", "LISP_STAGE2_PROMPT", "Message",
    "PromptStyle", "ROLE_SENTENCE", "STYLE_MATRIX", "SolvedExample",
    "remember_example", "render_initial_prompt", "render_stage2_prompt",
    "select_few_shot",
    "translate_constraints_nl",
    "ChatTranscript", "count_tokens",
    "BackendError", "BackendReply", "ChatBackend", "HttpBackend",
    "ModelRouter", "RecordingBackend", "ReplayBackend", "ReplayMissError",
    "fixture_key",
    "ExtractionError", "LlmRunResult", "MAX_ATTEMPTS", "extract_candidate",
    "solve_with_llm",
]
