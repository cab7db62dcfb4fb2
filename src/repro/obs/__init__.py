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

from repro._lazy import lazy_exports

_EXPORTS = {
    "TraceEvent": ".events",
    "category_of": ".events",
    "explain_records": ".explain",
    "explain_trace": ".explain",
    "chrome_trace_records": ".exporters",
    "read_jsonl": ".exporters",
    "write_chrome_trace": ".exporters",
    "write_jsonl": ".exporters",
    "write_prometheus": ".exporters",
    "TracingDecisionListener": ".listener",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "TraceSession": ".session",
    "TracedRun": ".session",
    "current_session": ".session",
    "use_tracing": ".session",
    "TRACE_LEVELS": ".tracer",
    "Tracer": ".tracer",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
