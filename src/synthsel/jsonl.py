"""Append-only JSON-lines files: the learned state and the replay fixtures.

A last line without its newline is a torn append, left by a process stopped
mid-write. A read skips it; the next append cuts it off first, so the new
lines start a line of their own.
"""

from __future__ import annotations

import json
import os
from typing import Callable


def read(path: str | os.PathLike, what: str,
         take: Callable[[object], None]) -> os.stat_result:
    """Pass each line of the file at `path`, decoded, to `take`, skipping
    blank lines and a torn last line, and return the file's status as read.
    A line that does not decode, or that `take` rejects with ValueError,
    KeyError, TypeError or AttributeError, raises ValueError naming `path`,
    the line and `what` the line should have been."""
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.endswith("\n") and line.strip():  # only the last can lack it
                try:
                    take(json.loads(line))
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise ValueError(f"{path}, line {number}: not a {what} "
                                     f"({type(exc).__name__}: {exc})") from None
        return os.fstat(fh.fileno())


def append(path: str | os.PathLike, text: str) -> None:
    """Append `text`, whole lines, to the file at `path` (made if missing),
    after cutting off a torn last line."""
    with open(path, "a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.seek(0)
                fh.truncate(fh.read().rfind(b"\n") + 1)
        fh.write(text.encode("utf-8"))
