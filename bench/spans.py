"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into the library's
public functions; nothing inside the library is instrumented.  Each span has
a name, start and end (``time.perf_counter`` seconds), the id of the span
that was open when it started, a request id shared by all spans of one
benchmark operation, and free-form attributes (counts, residuals, gaps).
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    """Collects spans in memory; :meth:`export` hands them over at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request, **attrs):
        rec = {"id": len(self.spans), "name": name, "request": request,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def named(self, name: str, **match) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None
                and all(s.get(k) == v for k, v in match.items())]

    def durations(self, name: str, **match) -> list[float]:
        return [s["end"] - s["start"] for s in self.named(name, **match)]

    def self_times(self) -> dict[str, dict]:
        """Per span name: call count, total seconds, and self seconds (the
        span's duration minus the part covered by its direct children)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            dur = s["end"] - s["start"]
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[s["id"]]
        return out

    def export(self) -> dict:
        return {"self_times": self.self_times(), "spans": self.spans}


class NullTracer:
    """Tracing off: the same call sites, no recording."""

    def span(self, name, request, **attrs):
        return contextlib.nullcontext({})
