"""Spans recorded around calls into the program's layers.

The traced run replaces module attributes of the program with wrappers
from this file (and puts the originals back afterwards). Each wrapper
records one span -- name, start, end, parent span, query id -- plus the
counts the wrapped function returns, keeps it in memory, and the spans
are written out when the run ends. A layer is the part of a span name
before the first dot. Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    query: Optional[str]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.query: Optional[str] = None

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable[[tuple, dict, Any], dict]] = None) -> Callable:
        """fn wrapped to record a span; attrs(args, kwargs, result) adds
        counts read off the call's arguments and return value."""
        tracer = self

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0,
                        tracer._stack[-1] if tracer._stack else -1, tracer.query)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str,
              attrs: Optional[Callable] = None, static: bool = False) -> None:
        """Replace owner.attr by a traced wrapper until restore()."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = original.__func__ if static else original
        wrapped = self.wrap(name, fn, attrs)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "query": s.query, **s.attrs}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children
    (children never overlap: the program runs on one thread)."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own
