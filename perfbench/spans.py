"""In-memory spans for the traced benchmark run.

A span records its name (the metric stem), start, end, parent span and
operation id, plus any work counts attached to it. Spans stay in memory
and are written out once, when the operation ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects nested spans for one operation."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Yields the span's counts dict, for work counts to be set on."""
        record = {"id": len(self.spans), "name": name, "op": self.op_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump(self.spans, handle)


class NullTracer:
    """Same interface, records nothing: the untraced path."""

    @contextmanager
    def span(self, name: str):
        yield {}


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[tuple[str, int], float]:
    """Duration minus the time covered by child spans, keyed by (op, id)."""
    children: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["op"], span["parent"]), []).append(
                (span["start"], span["end"]))
    out = {}
    for span in spans:
        key = (span["op"], span["id"])
        out[key] = span["end"] - span["start"] - _covered(children.get(key, []))
    return out
