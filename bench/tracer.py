"""In-memory spans around the benchmark's calls into the package's layers.

A span records its name, start, end, parent span and any counts attached to
it. Spans stay in memory until :meth:`Tracer.dump` writes them out. A
disabled tracer hands out one shared no-op context, so the untraced run pays
only a method call per span.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.bookkeeping_s = 0.0
        self._open: list[int] = []
        self._noop = contextlib.nullcontext({})

    def span(self, name: str, **counts):
        """Context manager around one call; yields a dict for counts learnt
        during the call."""
        if not self.enabled:
            return self._noop
        return self._record(name, counts)

    @contextlib.contextmanager
    def _record(self, name: str, counts: dict):
        t0 = time.perf_counter()
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": 0.0,
            "end": 0.0,
            "counts": counts,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        self.bookkeeping_s += record["start"] - t0
        try:
            yield counts
        finally:
            t1 = time.perf_counter()
            record["end"] = t1
            self._open.pop()
            self.bookkeeping_s += time.perf_counter() - t1

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(totals)

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["bookkeeping_s"] = self.bookkeeping_s
        doc["self_time_s"] = self.self_times()
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
