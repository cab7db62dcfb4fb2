"""Time-series instrumentation of the simulated system.

The industrial motivation for the paper is observability: the field
fault went unnoticed because the wrong signals were watched.  The
``Telemetry`` probe samples the simulator's internal signals (free heap,
active threads, queue length, counters) on a fixed simulated-time grid,
so that examples and tests can *see* aging build up between garbage
collections, and so resource-driven policies have a realistic signal.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import Iterable, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TelemetrySample:
    """One snapshot of the system state."""

    time_s: float
    free_heap_mb: float
    live_mb: float
    garbage_mb: float
    active_threads: int
    in_service: int
    queue_length: int
    completed: int
    lost: int
    rejuvenations: int
    gc_count: int


#: The canonical telemetry column order -- the CSV header, and the
#: vocabulary the metrics snapshot reuses (a counter column ``completed``
#: becomes the metric ``repro_completed_total``; see
#: :meth:`repro.obs.metrics.MetricsRegistry.add_run`).
TELEMETRY_COLUMNS: Tuple[str, ...] = tuple(
    f.name for f in fields(TelemetrySample)
)


def write_telemetry_csv(
    path: str,
    samples_per_run: Iterable[Sequence[TelemetrySample]],
) -> int:
    """Write one CSV over many replications; returns rows written.

    The header is ``replication`` followed by
    :data:`TELEMETRY_COLUMNS`, so single-run and multi-replication
    exports share one schema.  ``samples_per_run`` must be in job
    submission order (both execution backends guarantee it), which
    keeps the file bit-identical between serial and process-pool runs.
    """
    rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("replication",) + TELEMETRY_COLUMNS)
        for replication, samples in enumerate(samples_per_run):
            for sample in samples:
                writer.writerow(
                    (replication,)
                    + tuple(getattr(sample, n) for n in TELEMETRY_COLUMNS)
                )
                rows += 1
    return rows


class Telemetry:
    """A fixed-interval probe of system state.

    Parameters
    ----------
    interval_s:
        Simulated seconds between samples.

    Examples
    --------
    >>> from repro.ecommerce import ECommerceSystem, PAPER_CONFIG
    >>> from repro.ecommerce import PoissonArrivals
    >>> probe = Telemetry(interval_s=100.0)
    >>> system = ECommerceSystem(
    ...     PAPER_CONFIG, PoissonArrivals(1.0), seed=1, telemetry=probe
    ... )
    >>> _ = system.run(2_000)
    >>> probe.samples[0].time_s
    0.0
    """

    def __init__(self, interval_s: float) -> None:
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval_s = float(interval_s)
        self.samples: List[TelemetrySample] = []

    def record(self, sample: TelemetrySample) -> None:
        """Append one snapshot (called by the simulator's probe event)."""
        self.samples.append(sample)

    def clear(self) -> None:
        """Drop all samples (a fresh run starts clean)."""
        self.samples.clear()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """One signal as an array, e.g. ``column("free_heap_mb")``."""
        if not self.samples:
            return np.empty(0)
        if name not in {f.name for f in fields(TelemetrySample)}:
            raise KeyError(f"unknown telemetry column {name!r}")
        return np.array([getattr(s, name) for s in self.samples])

    def times(self) -> np.ndarray:
        """The sampling grid."""
        return self.column("time_s")

    def __len__(self) -> int:
        return len(self.samples)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_csv(self, path: str) -> None:
        """Write all samples as CSV with a header row."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(TELEMETRY_COLUMNS)
            for sample in self.samples:
                writer.writerow(
                    [getattr(sample, n) for n in TELEMETRY_COLUMNS]
                )

    def to_rows(self) -> List[Sequence[float]]:
        """All samples as plain tuples (for programmatic consumers)."""
        return [
            tuple(getattr(sample, n) for n in TELEMETRY_COLUMNS)
            for sample in self.samples
        ]
