"""In-memory spans around the benchmark's own calls into codlib.

A span records name, start, end, parent span and job id, plus attributes
the caller attaches (design size, bytes, counts).  Spans stay in memory
while jobs run and are written out once, at the end.  No span is recorded
inside codlib itself.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.job: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body; yields the attribute dict so results can be added."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[tuple[dict, float]]:
        """Each span with its duration minus the time its children cover.

        Spans come from one thread and nest strictly, so the children of a
        span never overlap and their durations can simply be summed.
        """
        child_s = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_s[rec["parent"]] += rec["end"] - rec["start"]
        return [
            (rec, rec["end"] - rec["start"] - child_s[rec["id"]])
            for rec in self.spans
        ]

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


class _NullSpan:
    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stands in for Tracer in the untraced phase; records nothing."""

    job: int | None = None
    _span = _NullSpan()

    def span(self, name: str, **attrs):
        return self._span
