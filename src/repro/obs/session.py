"""Trace sessions: collecting per-replication traces across a whole run.

Tracing has to survive the execution layer: replication jobs may run in
pool worker processes, where a tracer's in-memory buffer is useless to
the parent.  The contract is therefore:

1. The CLI (or any caller) installs a :class:`TraceSession` with
   :func:`use_tracing` around the work.
2. The one job runner, :func:`repro.exec.jobs.run_jobs`, consults
   :func:`current_session` and stamps the session's trace level onto
   each :class:`~repro.exec.jobs.ReplicationJob` -- a picklable string.
3. :func:`~repro.exec.jobs.execute_job` builds a worker-local
   :class:`~repro.obs.tracer.Tracer` and returns its events, encoded as
   one :class:`~repro.obs.columnar.store.ColumnarTrace`, *inside* the
   :class:`~repro.ecommerce.metrics.RunResult`, which already crosses
   the process boundary.
4. Back in the parent, ``run_jobs`` calls :meth:`TraceSession.ingest`
   with the jobs and results **in submission order** -- the same order
   for every backend, so trace files and metrics snapshots are
   bit-identical between serial and process-pool runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.columnar.store import (
    ColumnarTrace,
    MergePlan,
    encode_events,
    encode_records,
)
from repro.obs.events import RUN_META
from repro.obs.exporters import (
    write_chrome_trace,
    write_jsonl_lines,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry, run_summary
from repro.obs.tracer import validate_level


#: Accepted trace file formats (what :meth:`TraceSession.write_trace`
#: writes).
TRACE_FORMATS: Tuple[str, ...] = ("jsonl", "columnar")


def validate_format(trace_format: str) -> str:
    """Return ``trace_format`` if valid, raise ``ValueError`` otherwise."""
    if trace_format not in TRACE_FORMATS:
        raise ValueError(
            f"unknown trace format {trace_format!r}; "
            f"expected one of {TRACE_FORMATS}"
        )
    return trace_format


@dataclass(frozen=True)
class TracedRun:
    """One replication's bookkeeping plus its trace events.

    ``events`` is the run's one-segment
    :class:`~repro.obs.columnar.store.ColumnarTrace`, stamped with the
    run's index.
    """

    index: int
    tag: Tuple[Any, ...]
    seed: Optional[int]
    summary: Dict[str, Any]
    events: ColumnarTrace


class TraceSession:
    """Accumulates traced replications and writes the export formats.

    Parameters
    ----------
    level:
        Trace level stamped onto jobs run while this session is
        installed (``spans`` / ``decisions`` / ``all``).
    trace_format:
        The file :meth:`write_trace` writes: ``jsonl`` or the
        ``columnar`` container.  Collection is the same either way.
    """

    def __init__(
        self, level: str = "all", trace_format: str = "jsonl"
    ) -> None:
        self.level = validate_level(level)
        self.trace_format = validate_format(trace_format)
        self.runs: List[TracedRun] = []
        #: Per-run DES profiles (submission order) for runs that carried
        #: one; only their deterministic event counts reach metrics.
        self.profiles: List[Any] = []

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def ingest(self, jobs: Sequence[Any], runs: Sequence[Any]) -> None:
        """Absorb one ``backend.map`` worth of results.

        ``jobs`` and ``runs`` are parallel sequences in submission
        order; each run's trace (if any) was carried back on
        ``RunResult.trace``.
        """
        if len(jobs) != len(runs):
            raise ValueError("jobs and runs must be parallel sequences")
        for job, run in zip(jobs, runs):
            trace = getattr(run, "trace", None)
            # Worker traces are encoded with run index 0; stamp the
            # submission-order index the parent assigns.
            events = (
                trace.with_run(len(self.runs))
                if trace is not None
                else encode_events(())
            )
            self.runs.append(
                TracedRun(
                    index=len(self.runs),
                    tag=tuple(getattr(job, "tag", ())),
                    seed=getattr(job, "seed", None),
                    summary=run_summary(run),
                    events=events,
                )
            )
            profile = getattr(run, "profile", None)
            if profile is not None:
                self.profiles.append(profile)

    @property
    def n_events(self) -> int:
        """Trace events collected so far (excluding run.meta records)."""
        return sum(len(run.events) for run in self.runs)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @staticmethod
    def _meta_record(run: TracedRun) -> Dict[str, Any]:
        return {
            "run": run.index,
            "tag": list(run.tag),
            "seed": run.seed,
            "ts": 0.0,
            "type": RUN_META,
            "source": "session",
            "data": dict(run.summary),
        }

    def records(self) -> Iterator[Dict[str, Any]]:
        """Flat JSONL records: one ``run.meta`` per run, then its events."""
        for run in self.runs:
            yield self._meta_record(run)
            # Decoded on demand; run indices were stamped at ingest.
            yield from run.events.iter_records()

    def _parts(self) -> List[ColumnarTrace]:
        """The session's traces in file order: per run, its ``run.meta``
        record, then its events (if any)."""
        parts = []
        for run in self.runs:
            parts.append(encode_records([self._meta_record(run)]))
            if len(run.events):
                parts.append(run.events)
        return parts

    def columnar_trace(self) -> ColumnarTrace:
        """The whole session as one consolidated columnar trace.

        Runs contribute their worker-encoded traces as-is (no
        re-parse).  Each run becomes two segments -- its ``run.meta``
        record, then its events -- in submission order, so the segment
        index maps directly onto runs.
        """
        return ColumnarTrace.from_batches(self._parts())

    def registry(self) -> MetricsRegistry:
        """Metrics over all ingested runs, merged in submission order."""
        registry = MetricsRegistry()
        for run in self.runs:
            per_run = MetricsRegistry()
            per_run.add_run(run.summary)
            per_run.add_events(run.events)
            registry.merge(per_run)
        for profile in self.profiles:
            profile.to_registry(registry)
        return registry

    def _jsonl_lines(self) -> Iterator[str]:
        for part in self._parts():
            yield from part.to_jsonl_lines()

    def write_jsonl(self, path: str) -> int:
        """Write the JSONL trace; return the line count.

        The lines are those of :meth:`records`, written run by run from
        the runs' own traces; no consolidated trace is built.
        """
        return write_jsonl_lines(path, self._jsonl_lines())

    def write_columnar(self, path: str) -> int:
        """Write the columnar trace container; return the record count.

        The file is that of :meth:`columnar_trace`, streamed column by
        column from the runs' own traces through their
        :class:`~repro.obs.columnar.store.MergePlan`.
        """
        from repro.obs.columnar.io import write_columnar

        plan = MergePlan(self._parts())
        write_columnar(plan, path)
        return len(plan)

    def write_trace(self, path: str) -> int:
        """Write the trace in this session's format; return records."""
        if self.trace_format == "columnar":
            return self.write_columnar(path)
        return self.write_jsonl(path)

    def write_chrome(self, path: str) -> int:
        """Write the Chrome/Perfetto trace; return the record count."""
        return write_chrome_trace(path, self.records())

    def write_metrics(self, path: str) -> None:
        """Write the Prometheus textfile snapshot."""
        write_prometheus(path, self.registry())


# ---------------------------------------------------------------------------
# The installed-session stack (mirrors repro.exec.use_backend)
# ---------------------------------------------------------------------------
_SESSION_STACK: List[TraceSession] = []


@contextmanager
def use_tracing(session: TraceSession) -> Iterator[TraceSession]:
    """Install ``session`` as the active trace session in this block."""
    _SESSION_STACK.append(session)
    try:
        yield session
    finally:
        _SESSION_STACK.pop()


def current_session() -> Optional[TraceSession]:
    """The innermost installed session, or ``None`` (tracing off)."""
    return _SESSION_STACK[-1] if _SESSION_STACK else None


__all__ = [
    "TRACE_FORMATS",
    "TraceSession",
    "TracedRun",
    "current_session",
    "use_tracing",
    "validate_format",
]
