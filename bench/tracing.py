"""Spans recorded by the benchmark around its calls into each module.

A span holds its name, start, end, parent span and operation id, plus
counts set by the caller (``d``, ``steps``, ``points`` ...).  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: str | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
            **counts,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Same interface, records nothing: the untraced runs use it."""

    enabled = False
    op = None

    def span(self, name: str, **counts):
        return contextlib.nullcontext({})


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total time and self time.

    Self time is a span's duration minus the durations of its direct
    children; spans of one tracer never overlap except by nesting.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += duration(span)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration(span)
        row["self_s"] += duration(span) - child_time[span["id"]]
    return table
