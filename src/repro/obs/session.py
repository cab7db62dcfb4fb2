"""Trace sessions: collecting per-replication traces across a whole run.

Tracing has to survive the execution layer: replication jobs may run in
pool worker processes, where a tracer's in-memory buffer is useless to
the parent.  The contract is therefore:

1. The CLI (or any caller) installs a :class:`TraceSession` with
   :func:`use_tracing` around the work.
2. Job builders (:func:`repro.ecommerce.runner.replication_jobs`,
   :func:`repro.experiments.sweep.sweep_jobs`) consult
   :func:`current_session` and stamp the session's trace level onto
   each :class:`~repro.exec.jobs.ReplicationJob` -- a picklable string.
3. :func:`~repro.exec.jobs.execute_job` builds a worker-local
   :class:`~repro.obs.tracer.Tracer` and returns its events, encoded as
   one column batch, *inside* the
   :class:`~repro.ecommerce.metrics.RunResult`, which already crosses
   the process boundary.
4. Back in the parent, the harness calls :meth:`TraceSession.ingest`
   with the jobs and results **in submission order** -- the same order
   for every backend, so trace files and metrics snapshots are
   bit-identical between serial and process-pool runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.columnar.store import (
    ColumnarRun,
    ColumnarTrace,
    encode_events,
    encode_records,
)
from repro.obs.events import RUN_META
from repro.obs.exporters import (
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry, registry_for_runs
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

    ``events`` is the run's :class:`~repro.obs.columnar.store.ColumnarRun`
    (an encoded column batch, iterable as events on demand).
    """

    index: int
    tag: Tuple[Any, ...]
    seed: Optional[int]
    summary: Dict[str, Any]
    events: ColumnarRun


def _run_summary(run: Any) -> Dict[str, Any]:
    """The ``run.meta`` payload for one RunResult."""
    return {
        "arrivals": run.arrivals,
        "completed": run.completed,
        "lost": run.lost,
        "avg_response_time": run.avg_response_time,
        "loss_fraction": run.loss_fraction,
        "gc_count": run.gc_count,
        "rejuvenations": run.rejuvenations,
        "sim_duration_s": run.sim_duration_s,
    }


class TraceSession:
    """Accumulates traced replications and writes the export formats.

    Parameters
    ----------
    level:
        Trace level stamped onto jobs built while this session is
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
            # Worker batches are encoded with run index 0; stamp the
            # submission-order index the parent assigns.
            events = ColumnarRun(
                trace.batch.with_run(len(self.runs))
                if trace is not None
                else encode_events(())
            )
            self.runs.append(
                TracedRun(
                    index=len(self.runs),
                    tag=tuple(getattr(job, "tag", ())),
                    seed=getattr(job, "seed", None),
                    summary=_run_summary(run),
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
            yield from run.events.trace.iter_records()

    def columnar_trace(self) -> ColumnarTrace:
        """The whole session as one consolidated columnar trace.

        Runs contribute their worker-encoded batches as-is (no
        re-parse).  Each run becomes two segments -- its ``run.meta``
        record, then its events -- in submission order, so the segment
        index maps directly onto runs.
        """
        batches = []
        for run in self.runs:
            batches.append(encode_records([self._meta_record(run)]))
            if len(run.events):
                batches.append(run.events.batch)
        return ColumnarTrace.from_batches(batches)

    def registry(self) -> MetricsRegistry:
        """Metrics over all ingested runs, merged in submission order."""
        registry = MetricsRegistry()
        for run in self.runs:
            per_run = MetricsRegistry()
            per_run.counter("repro_replications_total").inc()
            for key, value in run.summary.items():
                if key in ("avg_response_time", "loss_fraction"):
                    continue
                if key == "sim_duration_s":
                    per_run.gauge("repro_sim_duration_seconds").set(value)
                    continue
                per_run.counter(f"repro_{key}_total").inc(value)
            per_run.histogram(
                "repro_replication_avg_response_time_seconds"
            ).observe(run.summary["avg_response_time"])
            per_run.add_events(run.events)
            registry.merge(per_run)
        for profile in self.profiles:
            profile.to_registry(registry)
        return registry

    def write_jsonl(self, path: str) -> int:
        """Write the JSONL trace; return the line count."""
        return write_jsonl(path, self.records())

    def write_columnar(self, path: str) -> int:
        """Write the columnar trace container; return the record count."""
        from repro.obs.columnar.io import write_columnar

        trace = self.columnar_trace()
        write_columnar(trace, path)
        return len(trace)

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


def active_trace_level() -> Optional[str]:
    """The level jobs should be stamped with, or ``None``."""
    session = current_session()
    return session.level if session is not None else None


__all__ = [
    "TRACE_FORMATS",
    "TraceSession",
    "TracedRun",
    "active_trace_level",
    "current_session",
    "registry_for_runs",
    "use_tracing",
    "validate_format",
]
