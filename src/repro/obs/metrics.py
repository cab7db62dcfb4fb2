"""Counters, gauges and bucketed-latency histograms, with merging.

A :class:`MetricsRegistry` aggregates what a run *did* -- requests
completed and lost, GCs, rejuvenations, policy triggers, and bucketed
response-time distributions (HDR-style: fixed logarithmic bucket
boundaries, so merging across replications is exact) -- and renders a
Prometheus-style textfile snapshot.

Determinism contract: registries built per replication are merged **in
job submission order** by the session layer, never in completion order,
so the snapshot is bit-identical between the serial and process-pool
backends.  (Counter and histogram merges commute, but gauges are
last-write-wins -- ordering the merge makes even those deterministic.)

The counter names are unified with the
:class:`~repro.ecommerce.telemetry.TelemetrySample` column schema: a
telemetry column ``completed`` becomes the metric
``repro_completed_total``, and so on -- one vocabulary across the CSV
export and the metrics snapshot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.obs.columnar.store import ColumnarRun

from repro.obs.events import (
    POLICY_BATCH,
    POLICY_TRIGGER,
    REQUEST_COMPLETE,
    REQUEST_LOSS,
    SYSTEM_GC,
    SYSTEM_REJUVENATION,
)

#: Telemetry columns mirrored as counters (``repro_<column>_total``).
TELEMETRY_COUNTER_COLUMNS: Tuple[str, ...] = (
    "completed",
    "lost",
    "rejuvenations",
    "gc_count",
)

#: Default latency bucket boundaries, seconds (1-2.5-5 ladder; the
#: paper's response times live between ~5 s healthy and ~100 s degraded).
LATENCY_BOUNDS_S: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0,
)

LabelItems = Tuple[Tuple[str, str], ...]

#: ``# HELP`` text per metric family.  Families not listed fall back
#: to a generic line -- the exposition still carries HELP + TYPE for
#: every family, as the text format expects.
METRIC_HELP: Dict[str, str] = {
    "repro_replications_total": "Simulation replications aggregated",
    "repro_arrivals_total": "Transactions generated by the workload",
    "repro_completed_total": "Transactions completed",
    "repro_lost_total": "Transactions lost to rejuvenation or downtime",
    "repro_rejuvenations_total": "Rejuvenations carried out",
    "repro_gc_count_total": "Full garbage collections",
    "repro_sim_duration_seconds": "Simulated duration of the last run",
    "repro_replication_avg_response_time_seconds": (
        "Per-replication average response time"
    ),
    "repro_trace_events_total": "Trace events by type",
    "repro_response_time_seconds": "Completed-transaction response times",
    "repro_request_losses_total": "Lost transactions by reason",
    "repro_gc_pause_seconds_total": "Simulated seconds spent in GC pauses",
    "repro_rejuvenation_lost_jobs_total": (
        "In-flight transactions killed by rejuvenations"
    ),
    "repro_policy_triggers_total": "Policy rejuvenation triggers",
    "repro_batch_mean_seconds": "Per-batch mean response times",
    "repro_profile_events_total": (
        "DES events fired, by subsystem and event kind"
    ),
}


def _label_key(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` line (backslash and newline only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: LabelItems, extra: str = "") -> str:
    parts = [
        f'{key}="{_escape_label_value(value)}"' for key, value in labels
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """A point-in-time value (merge is last-write-wins)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0.0
        self._written = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self._written = True

    def merge(self, other: "Gauge") -> None:
        if other._written:
            self.value = other.value
            self._written = True


class Histogram:
    """Fixed-boundary bucketed distribution (exact under merging).

    Parameters
    ----------
    bounds:
        Ascending upper bucket boundaries; an implicit ``+Inf`` bucket
        catches the overflow.  Fixed boundaries (rather than adaptive
        ones) are what make cross-replication merges exact, the same
        trade HDR histograms make.
    """

    kind = "histogram"

    def __init__(self, bounds: Sequence[float] = LATENCY_BOUNDS_S) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("need at least one bucket boundary")
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket boundaries must be ascending")
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different boundaries"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.sum += other.sum
        self.count += other.count
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def cumulative(self) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, +Inf last."""
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), running + self.counts[-1]))
        return pairs


class MetricsRegistry:
    """Name/label-addressed metrics with deterministic merging.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.counter("repro_completed_total").inc(3)
    >>> registry.histogram("repro_response_time_seconds").observe(4.2)
    >>> "repro_completed_total 3" in registry.to_prometheus()
    True
    """

    def __init__(self) -> None:
        #: (name, labels) -> metric, in first-registration order.
        self._metrics: Dict[Tuple[str, LabelItems], Any] = {}

    # ------------------------------------------------------------------
    # Registration / lookup
    # ------------------------------------------------------------------
    def _get(self, name: str, labels: Dict[str, Any], factory) -> Any:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = LATENCY_BOUNDS_S,
        **labels: Any,
    ) -> Histogram:
        return self._get(name, labels, lambda: Histogram(bounds))

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Merging and ingestion
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (call in submission order)."""
        for (name, labels), metric in other._metrics.items():
            key = (name, labels)
            mine = self._metrics.get(key)
            if mine is None:
                # Fresh copy so later merges cannot alias other's state.
                if isinstance(metric, Histogram):
                    mine = Histogram(metric.bounds)
                else:
                    mine = type(metric)()
                self._metrics[key] = mine
            if type(mine) is not type(metric):
                raise TypeError(
                    f"metric {name!r} registered as {mine.kind} and "
                    f"{metric.kind}"
                )
            mine.merge(metric)

    def add_events(self, events: ColumnarRun) -> None:
        """Fold one replication's trace into the registry.

        ``events`` is the run's
        :class:`~repro.obs.columnar.store.ColumnarRun`, read by column:
        per-type counts from the ``type_id`` column, the per-request
        and per-batch float fields by gather, and only the sparse
        loss/GC/rejuvenation/trigger rows decoded.  Metrics are
        registered in the order a walk over the events first touches
        them, and every value folds in event order, so the snapshot is
        exactly the per-event walk's.

        Raises :class:`ValueError` if a ``request.complete`` or
        ``policy.batch`` event lacks a numeric histogram field.
        """
        trace = events.trace
        if not len(trace):
            return
        type_id = trace.type_id
        counts = np.bincount(type_id)
        firsts, first_rows = np.unique(type_id, return_index=True)
        # (row, step within that row, getter, name, labels, values)
        steps: List[Tuple[int, int, Any, str, Dict[str, Any], Any]] = []
        for tid, row in zip(firsts.tolist(), first_rows.tolist()):
            etype = trace.types[tid]
            steps.append(
                (
                    row,
                    0,
                    self.counter,
                    "repro_trace_events_total",
                    {"type": etype},
                    (int(counts[tid]),),
                )
            )
            if etype in _EVENT_HISTOGRAMS:
                name, key = _EVENT_HISTOGRAMS[etype]
                rows = np.flatnonzero(type_id == tid)
                kept, values = trace.field_float(key, rows)
                if len(kept) != len(rows):
                    raise ValueError(
                        f"{etype} event without a numeric {key!r} field"
                    )
                values = values.tolist()
                steps.append((row, 1, self.histogram, name, {}, values))
        sparse = np.flatnonzero(trace.mask_of_types(_SPARSE_EVENT_TYPES))
        for row, record in zip(sparse.tolist(), trace.iter_records(sparse)):
            steps.append((row, 1, self.counter) + _sparse_counter(record))
        steps.sort(key=lambda step: step[:2])
        for _row, _step, get, name, labels, values in steps:
            metric = get(name, **labels)
            fold = (
                metric.observe if isinstance(metric, Histogram) else metric.inc
            )
            for value in values:
                fold(value)

    def add_run(self, run: Any) -> None:
        """Fold one :class:`~repro.ecommerce.metrics.RunResult` in.

        Counter names mirror the telemetry column schema
        (:data:`TELEMETRY_COUNTER_COLUMNS`), so the CSV export and the
        metrics snapshot speak the same vocabulary.
        """
        self.counter("repro_replications_total").inc()
        self.counter("repro_arrivals_total").inc(run.arrivals)
        for column in TELEMETRY_COUNTER_COLUMNS:
            self.counter(f"repro_{column}_total").inc(getattr(run, column))
        self.histogram("repro_replication_avg_response_time_seconds").observe(
            run.avg_response_time
        )
        self.gauge("repro_sim_duration_seconds").set(run.sim_duration_s)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view (for tests and programmatic consumers)."""
        out: Dict[str, Any] = {}
        for (name, labels), metric in self._metrics.items():
            key = name + _render_labels(labels)
            if isinstance(metric, Histogram):
                out[key] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "mean": metric.mean,
                    "buckets": dict(
                        zip([*metric.bounds, float("inf")], metric.counts)
                    ),
                }
            else:
                out[key] = metric.value
        return out

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (one snapshot).

        Every metric family gets its ``# HELP`` and ``# TYPE`` lines
        (:data:`METRIC_HELP`, with a generic fallback), and label
        values are escaped per the format (backslash, double quote,
        newline).
        """
        by_name: Dict[str, List[Tuple[LabelItems, Any]]] = {}
        for (name, labels), metric in self._metrics.items():
            by_name.setdefault(name, []).append((labels, metric))
        lines: List[str] = []
        for name, entries in by_name.items():
            help_text = METRIC_HELP.get(name, f"{name} (no description)")
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {entries[0][1].kind}")
            for labels, metric in entries:
                if isinstance(metric, Histogram):
                    for bound, cumulative in metric.cumulative():
                        le = "+Inf" if bound == float("inf") else f"{bound:g}"
                        rendered = _render_labels(labels, f'le="{le}"')
                        lines.append(f"{name}_bucket{rendered} {cumulative}")
                    suffix = _render_labels(labels)
                    lines.append(f"{name}_sum{suffix} {metric.sum:g}")
                    lines.append(f"{name}_count{suffix} {metric.count}")
                else:
                    value = metric.value
                    rendered = _render_labels(labels)
                    lines.append(f"{name}{rendered} {value:g}")
        return "\n".join(lines) + "\n"


#: Event type -> (histogram, float payload field) it feeds.
_EVENT_HISTOGRAMS: Dict[str, Tuple[str, str]] = {
    REQUEST_COMPLETE: ("repro_response_time_seconds", "response_time"),
    POLICY_BATCH: ("repro_batch_mean_seconds", "batch_mean"),
}

#: Event types that feed a counter from their decoded record.
_SPARSE_EVENT_TYPES = (
    REQUEST_LOSS,
    SYSTEM_GC,
    SYSTEM_REJUVENATION,
    POLICY_TRIGGER,
)


def _sparse_counter(
    record: Dict[str, Any],
) -> Tuple[str, Dict[str, Any], Tuple[Any]]:
    """``(name, labels, (amount,))`` one sparse event adds to."""
    etype, data = record["type"], record["data"]
    if etype == REQUEST_LOSS:
        return (
            "repro_request_losses_total",
            {"reason": data.get("reason", "unknown")},
            (1,),
        )
    if etype == SYSTEM_GC:
        return "repro_gc_pause_seconds_total", {}, (data.get("pause_s", 0.0),)
    if etype == SYSTEM_REJUVENATION:
        return "repro_rejuvenation_lost_jobs_total", {}, (data.get("lost", 0),)
    return "repro_policy_triggers_total", {"policy": record["source"]}, (1,)


def registry_for_runs(
    runs: Sequence[Any],
    events_per_run: Optional[Sequence[ColumnarRun]] = None,
) -> MetricsRegistry:
    """One registry over replications, merged in submission order.

    ``runs`` are :class:`~repro.ecommerce.metrics.RunResult` objects in
    job submission order (which both backends guarantee); optional
    ``events_per_run`` (each run's ``RunResult.trace`` payload) adds the
    per-event metrics (latency histograms, per-type counts) when the
    runs were traced.
    """
    registry = MetricsRegistry()
    for index, run in enumerate(runs):
        per_run = MetricsRegistry()
        per_run.add_run(run)
        if events_per_run is not None:
            per_run.add_events(events_per_run[index])
        registry.merge(per_run)
    return registry
