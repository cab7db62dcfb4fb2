"""The simulated e-commerce system of Section 3.

A 16-CPU Java system with a 3 GB heap whose two degradation mechanisms
-- kernel overhead above 50 concurrent threads, and 60-second
stop-the-world garbage collections forced by leaked per-transaction
allocations -- reproduce the performance behaviour of the industrial
system the paper studied.
"""

from repro.ecommerce.config import PAPER_CONFIG, SystemConfig
from repro.ecommerce.metrics import ReplicatedResult, RunResult
from repro.ecommerce.runner import (
    replication_jobs,
    run_once,
    run_replications,
    simulate_mmc_response_times,
)
from repro.ecommerce.spec import ARRIVAL_KINDS, ArrivalSpec
from repro.ecommerce.system import ECommerceSystem
from repro.ecommerce.telemetry import (
    TELEMETRY_COLUMNS,
    Telemetry,
    TelemetrySample,
    write_telemetry_csv,
)
from repro.ecommerce.trace import (
    RecordingArrivals,
    load_trace,
    save_trace,
)
from repro.ecommerce.workload import (
    ArrivalProcess,
    MMPPArrivals,
    PeriodicArrivals,
    PoissonArrivals,
    TraceArrivals,
)

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "ArrivalSpec",
    "ECommerceSystem",
    "MMPPArrivals",
    "PAPER_CONFIG",
    "PeriodicArrivals",
    "PoissonArrivals",
    "RecordingArrivals",
    "ReplicatedResult",
    "RunResult",
    "SystemConfig",
    "TELEMETRY_COLUMNS",
    "Telemetry",
    "TelemetrySample",
    "TraceArrivals",
    "load_trace",
    "replication_jobs",
    "run_once",
    "run_replications",
    "save_trace",
    "simulate_mmc_response_times",
    "write_telemetry_csv",
]
