"""Chat transcripts with running token totals.

Token counts are a deterministic approximation -- whitespace-delimited chunks
plus parentheses -- unless a backend supplies recorded provider counts for an
assistant message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .prompts import Message


def count_tokens(text: str) -> int:
    """Whitespace-delimited chunks plus the number of parentheses."""
    return len(text.split()) + text.count("(") + text.count(")")


@dataclass
class ChatTranscript:
    """The messages so far; `append` keeps the input (system and user) and
    output (assistant) token totals and the number of assistant answers."""

    messages: list[Message] = field(default_factory=list)
    input_tokens: int = 0
    output_tokens: int = 0
    assistant_count: int = 0

    def append(self, message: Message, tokens: Optional[int] = None) -> None:
        self.messages.append(message)
        if tokens is None:
            tokens = count_tokens(message.content)
        if message.role == "assistant":
            self.output_tokens += tokens
            self.assistant_count += 1
        else:
            self.input_tokens += tokens
