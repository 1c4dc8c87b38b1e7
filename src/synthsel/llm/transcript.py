"""Chat transcripts with per-message token accounting.

Token counts are a deterministic approximation -- whitespace-delimited chunks
plus parentheses -- unless a backend supplies recorded provider counts for an
assistant message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .prompts import Message

_INPUT_ROLES = ("system", "user")


def count_tokens(text: str) -> int:
    """Whitespace-delimited chunks plus the number of parentheses."""
    return len(text.split()) + text.count("(") + text.count(")")


@dataclass
class CountedMessage:
    role: str
    content: str
    tokens: int


@dataclass
class ChatTranscript:
    messages: list[CountedMessage] = field(default_factory=list)

    def append(self, message: Message,
               tokens: Optional[int] = None) -> CountedMessage:
        counted = CountedMessage(
            role=message.role,
            content=message.content,
            tokens=tokens if tokens is not None else count_tokens(message.content),
        )
        self.messages.append(counted)
        return counted

    @property
    def input_tokens(self) -> int:
        return sum(m.tokens for m in self.messages if m.role in _INPUT_ROLES)

    @property
    def output_tokens(self) -> int:
        return sum(m.tokens for m in self.messages if m.role == "assistant")

    @property
    def assistant_count(self) -> int:
        return sum(1 for m in self.messages if m.role == "assistant")

    def as_messages(self) -> list[Message]:
        return [Message(m.role, m.content) for m in self.messages]
