"""Chat-completion backends: live HTTP, deterministic replay, recording, and
a per-model router.

Replay fixtures are JSON lines of {key_hash, response_text, input_tokens,
output_tokens}, keyed by a stable hash of the model name and the full rendered
message sequence. A record-mode backend wraps a live one and appends fixtures.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Protocol, Sequence

import requests

from .prompts import Message

log = logging.getLogger(__name__)


class BackendError(Exception):
    """Transport-level failure talking to a model backend."""


class ReplayMissError(BackendError):
    """No recorded response for this prompt in the fixture file. `strict` is
    the replaying backend's switch: a strict miss stops the run, a tolerated
    one ends this solver's attempt at the query unsolved."""

    def __init__(self, message: str, strict: bool = True):
        super().__init__(message)
        self.strict = strict


@dataclass(frozen=True)
class BackendReply:
    text: str
    input_tokens: Optional[int] = None
    output_tokens: Optional[int] = None


class ChatBackend(Protocol):
    def complete(self, model: str, messages: Sequence[Message],
                 timeout: Optional[float] = None) -> BackendReply: ...


def fixture_key(model: str, messages: Sequence[Message]) -> str:
    payload = json.dumps(
        [model, [[m.role, m.content] for m in messages]],
        separators=(",", ":"), ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class ReplayBackend:
    """Answers prompts from recorded fixtures. A miss raises ReplayMissError
    carrying `strict`: a strict miss stops the run, a tolerated one leaves the
    solver unsolved with detail "replay gap: ..."."""

    path: str | Path
    strict: bool = True
    _entries: dict[str, list[dict]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._entries = {}
        path = Path(self.path)
        if path.exists():
            with open(path, encoding="utf-8") as fh:
                for number, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:  # the token counts may be missing or null
                        entry = json.loads(line)
                        if not isinstance(entry["response_text"], str):
                            raise TypeError("response_text is not a string")
                        self._entries.setdefault(entry["key_hash"], []).append(entry)
                    except (ValueError, KeyError, TypeError) as exc:
                        raise ValueError(f"{path}, line {number}: not a replay "
                                         f"fixture ({type(exc).__name__}: {exc})"
                                         ) from None

    def complete(self, model: str, messages: Sequence[Message],
                 timeout: Optional[float] = None) -> BackendReply:
        key = fixture_key(model, messages)
        queue = self._entries.get(key)
        if not queue:
            raise ReplayMissError(
                f"no fixture for key {key[:12]}… (model {model!r}, "
                f"{len(messages)} messages)", strict=self.strict)
        entry = queue.pop(0) if len(queue) > 1 else queue[0]
        return BackendReply(
            text=entry["response_text"],
            input_tokens=entry.get("input_tokens"),
            output_tokens=entry.get("output_tokens"),
        )


@dataclass
class HttpBackend:
    """Single-turn JSON chat-completion client.

    POSTs {model, messages, temperature} and reads the assistant message plus
    optional usage counts. The API key comes from the named environment
    variable, never from configuration files. One reconnect on transport
    errors, within the same time budget; no streaming.
    """

    endpoint: str
    api_key_env: Optional[str] = None
    temperature: float = 0.2
    request_timeout: float = 60.0

    def complete(self, model: str, messages: Sequence[Message],
                 timeout: Optional[float] = None) -> BackendReply:
        headers = {"Content-Type": "application/json"}
        if self.api_key_env:
            key = os.environ.get(self.api_key_env, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        payload = {
            "model": model,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": self.temperature,
        }
        budget = self.request_timeout if timeout is None else min(
            self.request_timeout, max(timeout, 0.05))
        started, left = time.monotonic(), budget
        last_exc: Optional[Exception] = None
        for attempt in range(2):  # one reconnect with what is left of the budget
            try:
                resp = requests.post(self.endpoint, json=payload,
                                     headers=headers, timeout=left)
                resp.raise_for_status()
                return self._parse(resp.json())
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_exc = exc
                left = budget - (time.monotonic() - started)
                if left <= 0:
                    break
            except (requests.RequestException, ValueError, KeyError) as exc:
                raise BackendError(f"chat completion failed: {exc}") from exc
        raise BackendError(f"chat completion failed within {budget} s: {last_exc}")

    @staticmethod
    def _parse(data: dict) -> BackendReply:
        try:
            choice = data["choices"][0]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed chat completion response: {exc}")
        usage = data.get("usage") or {}
        return BackendReply(
            text=text or "",
            input_tokens=usage.get("prompt_tokens"),
            output_tokens=usage.get("completion_tokens"),
        )


@dataclass
class ModelRouter:
    """Sends each model's requests to that model's own backend."""

    backends: Mapping[str, ChatBackend]

    def complete(self, model: str, messages: Sequence[Message],
                 timeout: Optional[float] = None) -> BackendReply:
        return self.backends[model].complete(model, messages, timeout=timeout)


@dataclass
class RecordingBackend:
    """Pass-through wrapper that appends a replay fixture for every reply."""

    inner: ChatBackend
    path: str | Path

    def complete(self, model: str, messages: Sequence[Message],
                 timeout: Optional[float] = None) -> BackendReply:
        reply = self.inner.complete(model, messages, timeout=timeout)
        write_fixture(self.path, model, messages, reply.text,
                      reply.input_tokens, reply.output_tokens)
        return reply


def write_fixture(path: str | Path, model: str, messages: Sequence[Message],
                  response_text: str,
                  input_tokens: Optional[int] = None,
                  output_tokens: Optional[int] = None) -> str:
    """Append one fixture entry; returns the key hash."""
    key = fixture_key(model, messages)
    entry = {
        "key_hash": key,
        "response_text": response_text,
        "input_tokens": input_tokens,
        "output_tokens": output_tokens,
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
    return key
