"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and op id.  Spans are
kept in a list while the run goes and written out once it ends, so the
only cost inside the timed region is two clock reads and an append.
Self time of a span is its duration minus the time its child spans cover;
children of one span never overlap because the run is single threaded.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


def no_span(name: str):
    """Stand-in for ``Tracer.span`` in the untraced run."""
    return _NULL


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _child_time(spans: list[dict]) -> list[float]:
    """Time each span's direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return covered


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: number of calls, total time and self time in seconds."""
    covered = _child_time(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = s["end"] - s["start"]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - covered[s["id"]]
    return out


def stage_coverage(spans: list[dict]) -> float:
    """Share of all "op" spans' time that their child (stage) spans cover."""
    covered = _child_time(spans)
    ops = [s for s in spans if s["name"] == "op"]
    return sum(covered[s["id"]] for s in ops) / sum(s["end"] - s["start"] for s in ops)


def write_chrome_trace(spans: list[dict], path: str) -> None:
    """Chrome trace-event JSON (loadable in Perfetto or chrome://tracing)."""
    t0 = min((s["start"] for s in spans), default=0.0)
    events = [
        {
            "name": s["name"],
            "ph": "X",
            "pid": 0,
            "tid": 0,
            "ts": (s["start"] - t0) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "args": {"span": s["id"], "parent": s["parent"], "op": s["op"]},
        }
        for s in spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
