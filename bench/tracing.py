"""Spans around the benchmark's calls into the package, kept in memory.

A span records its name, an optional tag (the table), start, end, the span
that caused it and the trace (one benchmark round) it belongs to, plus
counts such as events. The span
file is JSON lines, one span per line, written when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.trace = 0
        self._stack: list[int] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, tag: str | None = None, **counts):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield counts
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "parent": parent, "trace": self.trace, "name": name,
                               "tag": tag, "start": start, "end": end, "counts": counts})

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def totals(self) -> dict:
        """Per span name: number of spans, summed seconds and summed counts."""
        out: dict[str, dict] = {}
        for s in self.spans:
            agg = out.setdefault(s["name"], {"n": 0, "s": 0.0})
            agg["n"] += 1
            agg["s"] += s["end"] - s["start"]
            for key, val in s["counts"].items():
                agg[key] = agg.get(key, 0) + val
        return out


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    trace = 0

    def __init__(self):
        self._null = nullcontext({})

    def span(self, name: str, tag: str | None = None, **counts):
        return self._null
