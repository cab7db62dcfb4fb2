"""In-memory span recorder for the benchmark's traced runs.

A span is ``(name, start, end, parent, trace)``: nanosecond timestamps
from ``time.perf_counter_ns``, the index of the span that caused it,
and the index of the root span of its tree (its trace id).  Spans are
recorded from the benchmark's own code, around its calls into each
layer of ``repro``; nothing inside the program is instrumented.

Hot boundaries (policy ``observe`` calls, HTTP requests) would cost
more to record one span each than the work they bracket, so they are
aggregated into ``count`` + ``ns`` counters instead.

A layer's *self time* is its span's duration minus the part of that
interval its children cover.  Children may run in parallel (pool jobs
under one ``exec.map`` span), so coverage is the union of their
intervals, clipped to the parent.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One recorded interval; ``end`` is 0 while the span is open."""

    name: str
    start: int
    end: int
    parent: Optional[int]
    trace: int


class SpanRecorder:
    """Collects spans and hot-boundary counters in memory.

    Thread-safe: each thread keeps its own stack of open spans, so a
    span opened in a client thread nests under whatever that thread
    has open (or under an explicit ``parent``).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``name -> [count, ns]`` for hot boundaries.
        self.counters: Dict[str, List[int]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """Index of this thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _append(self, name: str, start: int, end: int,
                parent: Optional[int]) -> int:
        with self._lock:
            index = len(self.spans)
            trace = index if parent is None else self.spans[parent].trace
            self.spans.append(Span(name, start, end, parent, trace))
        return index

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[int]:
        """Record the ``with`` body as a span; yields its index."""
        if parent is None:
            parent = self.current()
        index = self._append(name, time.perf_counter_ns(), 0, parent)
        stack = self._stack()
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter_ns()

    def add(self, name: str, start: int, end: int,
            parent: Optional[int] = None) -> int:
        """Record an already-finished span (e.g. from a job event)."""
        if parent is None:
            parent = self.current()
        return self._append(name, start, end, parent)

    def count(self, name: str, calls: int, ns: int) -> None:
        """Add ``calls`` crossings costing ``ns`` in total to a counter."""
        with self._lock:
            slot = self.counters.setdefault(name, [0, 0])
            slot[0] += calls
            slot[1] += ns

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_ns(self) -> List[int]:
        """Self time of every span, by index (open spans count 0)."""
        kids: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None and span.end:
                kids.setdefault(span.parent, []).append(index)
        out = []
        for index, span in enumerate(self.spans):
            if not span.end:
                out.append(0)
                continue
            intervals = sorted(
                (max(self.spans[k].start, span.start),
                 min(self.spans[k].end, span.end))
                for k in kids.get(index, ())
            )
            covered, cursor = 0, span.start
            for lo, hi in intervals:
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.end - span.start - covered)
        return out

    def layer_self_s(self, root: str) -> Dict[str, float]:
        """Self seconds per layer (span name up to its first dot), over
        the trees whose root span is named ``root``."""
        out: Dict[str, float] = {}
        for span, own in zip(self.spans, self.self_ns()):
            if span.end and self.spans[span.trace].name == root:
                layer = span.name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + own / 1e9
        return out

    def dump(self, path: str) -> None:
        """Write every span and counter as one JSON document."""
        own = self.self_ns()
        payload = {
            "spans": [
                {
                    "name": span.name,
                    "start_ns": span.start,
                    "end_ns": span.end,
                    "parent": span.parent,
                    "trace": span.trace,
                    "self_ns": own[index],
                }
                for index, span in enumerate(self.spans)
            ],
            "counters": {
                name: {"count": count, "ns": ns}
                for name, (count, ns) in sorted(self.counters.items())
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
