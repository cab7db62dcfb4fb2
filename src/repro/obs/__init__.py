"""repro.obs -- structured tracing, decision audit, and metrics export.

The observability layer the paper's industrial story was missing: the
field outage persisted because operators watched the wrong signals, so
this package makes every signal of the reproduction inspectable:

* :mod:`~repro.obs.events` -- the typed trace record and the event
  taxonomy (request lifecycle spans, policy decisions, GC/rejuvenation
  system events).
* :mod:`~repro.obs.tracer` -- the per-replication event buffer with a
  near-free disabled path (one ``None`` check in the hot loops).
* :mod:`~repro.obs.listener` -- adapts the
  :class:`~repro.core.base.DecisionListener` hooks every policy calls
  into decision trace events (batch boundary, bucket ball, trigger
  cause).
* :mod:`~repro.obs.metrics` -- counters/gauges/bucketed-latency
  histograms with deterministic submission-order merging.
* :mod:`~repro.obs.exporters` -- JSONL, Chrome ``trace_event``
  (Perfetto-loadable) and Prometheus-textfile outputs.
* :mod:`~repro.obs.session` -- collects traces across replications and
  backends (``repro run --trace`` installs one).
* :mod:`~repro.obs.explain` -- the ``repro explain`` timeline: names,
  for every rejuvenation, the bucket/threshold/batch-mean that caused
  it.
* :mod:`~repro.obs.live` -- constant-memory live telemetry: streaming
  sketches, the flight recorder, the DES profiler, and the
  ``repro report`` / ``repro top`` renderers.
"""

from repro.obs.events import TraceEvent, category_of
from repro.obs.explain import explain_records, explain_trace
from repro.obs.exporters import (
    chrome_trace_records,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.listener import TracingDecisionListener
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.session import (
    TraceSession,
    TracedRun,
    current_session,
    use_tracing,
)
from repro.obs.tracer import TRACE_LEVELS, Tracer, make_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TRACE_LEVELS",
    "TraceEvent",
    "TraceSession",
    "TracedRun",
    "Tracer",
    "TracingDecisionListener",
    "category_of",
    "chrome_trace_records",
    "current_session",
    "explain_records",
    "explain_trace",
    "make_tracer",
    "read_jsonl",
    "use_tracing",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
