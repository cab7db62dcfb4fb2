"""Live telemetry: constant-memory observability for unbounded runs.

Where :mod:`repro.obs` tracing buffers *every* event for post-hoc
analysis, the live layer consumes the same emit stream with bounded
memory whatever the horizon:

- :mod:`~repro.obs.live.sketches` -- mergeable streaming aggregators
  (GK quantile sketch, rolling window, EWMA rate meter);
- :mod:`~repro.obs.live.tap` -- the tracer-protocol sink feeding them,
  plus submission-order merging across process-pool workers;
- :mod:`~repro.obs.live.recorder` -- the always-on flight recorder
  ring with severity-triggered dumps;
- :mod:`~repro.obs.live.profiler` -- per-subsystem wall-clock and
  event-count attribution for the DES;
- :mod:`~repro.obs.live.report` / :mod:`~repro.obs.live.top` -- the
  ``repro report`` HTML dashboard and the ``repro top`` terminal view.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DESProfiler": ".profiler",
    "Profile": ".profiler",
    "ProfileEntry": ".profiler",
    "merge_profiles": ".profiler",
    "subsystem_of": ".profiler",
    "DEFAULT_TRIGGERS": ".recorder",
    "FlightDump": ".recorder",
    "FlightRecorder": ".recorder",
    "RecorderSpec": ".recorder",
    "write_flight_jsonl": ".recorder",
    "render_report": ".report",
    "write_report": ".report",
    "DEFAULT_EPS": ".sketches",
    "EwmaRate": ".sketches",
    "GKSketch": ".sketches",
    "MERGED_ERROR_FACTOR": ".sketches",
    "RollingWindow": ".sketches",
    "DEFAULT_QUANTILES": ".tap",
    "LiveAggregator": ".tap",
    "LiveSpec": ".tap",
    "LiveTap": ".tap",
    "TeeTracer": ".tap",
    "compose_tracers": ".tap",
    "live_outcome": ".tap",
    "merge_live": ".tap",
    "LiveDisplay": ".top",
    "follow_snapshots": ".top",
    "read_snapshot_source": ".top",
    "render_snapshot": ".top",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
