"""The simulated e-commerce system of Section 3.

A 16-CPU Java system with a 3 GB heap whose two degradation mechanisms
-- kernel overhead above 50 concurrent threads, and 60-second
stop-the-world garbage collections forced by leaked per-transaction
allocations -- reproduce the performance behaviour of the industrial
system the paper studied.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PAPER_CONFIG": ".config",
    "SystemConfig": ".config",
    "ReplicatedResult": ".metrics",
    "RunResult": ".metrics",
    "replication_jobs": ".runner",
    "run_once": ".runner",
    "run_replications": ".runner",
    "simulate_mmc_response_times": ".runner",
    "ARRIVAL_KINDS": ".spec",
    "ArrivalSpec": ".spec",
    "ECommerceSystem": ".system",
    "TELEMETRY_COLUMNS": ".telemetry",
    "Telemetry": ".telemetry",
    "TelemetrySample": ".telemetry",
    "write_telemetry_csv": ".telemetry",
    "RecordingArrivals": ".trace",
    "load_trace": ".trace",
    "save_trace": ".trace",
    "ArrivalProcess": ".workload",
    "MMPPArrivals": ".workload",
    "PeriodicArrivals": ".workload",
    "PoissonArrivals": ".workload",
    "TraceArrivals": ".workload",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
