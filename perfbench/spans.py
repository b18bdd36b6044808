"""In-memory span tracing around the layer entry points the pipeline calls.

A Tracer replaces a function or method with a wrapper that records one
span per call: name, start, end, the span that was open when it was
called (its parent), the request id and phase the benchmark set, and the
analytic FLOPs of the call where known.  Spans stay in a list until the
run ends and are written out once.

Each wrapper is installed where the caller looks the name up, which is
not always where the function is defined: `pipeline` imports
`decimate_by_2` by name, so the benchmark patches `pipeline.decimate_by_2`,
not `dsp.decimate_by_2`.  A missing attribute raises at install time, so
a renamed entry point stops the benchmark instead of silently dropping
its spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    phase: str
    flops: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped callables; one thread only."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.phase = ""
        self.request: int | None = None
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, flops=None):
        """Return fn recording a span named `name` around every call.

        flops, when given, is called with the same arguments and returns
        the analytic FLOP count of that call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                id=len(tracer.spans),
                name=name,
                start=0.0,
                end=0.0,
                parent=tracer._open[-1] if tracer._open else None,
                request=tracer.request,
                phase=tracer.phase,
                flops=flops(*args, **kwargs) if flops else 0,
            )
            tracer.spans.append(span)
            tracer._open.append(span.id)
            span.start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._open.pop()

        return traced

    def patch(self, owner, attr: str, name: str, flops=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, flops))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


@dataclass
class NameSummary:
    """Every span of one name: inclusive and self durations in seconds."""

    durations: list[float]
    self_durations: list[float]
    flops: int

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def gflops(self) -> float:
        """Analytic FLOPs over busy time, in GFLOP/s (0 with no calls)."""
        busy = sum(self.durations)
        return self.flops / busy / 1e9 if busy > 0 else 0.0


def summarize(spans: list[Span]) -> dict[str, NameSummary]:
    selfs = self_times(spans)
    out: dict[str, NameSummary] = {}
    for s in spans:
        summ = out.setdefault(s.name, NameSummary([], [], 0))
        summ.durations.append(s.duration)
        summ.self_durations.append(selfs[s.id])
        summ.flops += s.flops
    return out


def child_time(spans: list[Span], parent_name: str) -> dict[str, float]:
    """Total time of direct children of `parent_name` spans, by name."""
    parents = {s.id for s in spans if s.name == parent_name}
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.parent in parents:
            out[s.name] += s.duration
    return dict(out)


def format_table(rows: list[tuple[str, ...]]) -> str:
    """Left-aligned columns, first row as the header."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows
    )


def self_time_table(summary: dict[str, NameSummary]) -> str:
    """Fixed-width per-layer table, largest self time first."""
    total_self = sum(sum(v.self_durations) for v in summary.values()) or 1.0
    rows = [("span", "calls", "total ms", "self ms", "self %",
             "self p50 ms", "self p95 ms")]
    for name, v in sorted(summary.items(),
                          key=lambda kv: -sum(kv[1].self_durations)):
        self_ms = 1e3 * np.asarray(v.self_durations)
        rows.append((
            name,
            str(v.calls),
            f"{1e3 * sum(v.durations):.3f}",
            f"{self_ms.sum():.3f}",
            f"{100 * self_ms.sum() / 1e3 / total_self:.1f}",
            f"{np.percentile(self_ms, 50):.4f}",
            f"{np.percentile(self_ms, 95):.4f}",
        ))
    return format_table(rows)
