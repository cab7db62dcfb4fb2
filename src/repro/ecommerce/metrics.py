"""Result containers for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.stats.intervals import mean_confidence_interval


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulation replication.

    ``avg_response_time`` and ``rt_std`` cover *completed* transactions
    after the warm-up cut; ``loss_fraction`` is lost transactions over all
    measured transactions -- the paper's rejuvenation cost metric.

    ``trace`` carries the run's events, encoded as one
    :class:`~repro.obs.columnar.store.ColumnarRun`, when tracing was on and
    ``telemetry`` the fixed-interval
    :class:`~repro.ecommerce.telemetry.TelemetrySample` probes when a
    telemetry probe was installed; both stay ``None`` otherwise.  They
    ride inside the (picklable) result so traces survive the trip back
    from process-pool workers.

    ``rejuvenation_times`` records the simulation clock of every policy
    trigger -- the signal the fault-campaign scorer compares against a
    scenario's ground-truth degradation intervals.

    The live-telemetry fields are populated by the matching job
    options: ``live`` carries the run's final constant-memory
    :class:`~repro.obs.live.LiveAggregator`, ``flight`` the
    severity-triggered :class:`~repro.obs.live.FlightDump` snapshots,
    and ``profile`` the per-subsystem
    :class:`~repro.obs.live.Profile` attribution -- all picklable, so
    they too survive the trip back from pool workers.
    """

    arrivals: int
    completed: int
    lost: int
    avg_response_time: float
    rt_std: float
    max_response_time: float
    loss_fraction: float
    gc_count: int
    rejuvenations: int
    sim_duration_s: float
    response_times: Optional[Tuple[float, ...]] = None
    trace: Optional[object] = None
    telemetry: Optional[Tuple[object, ...]] = None
    rejuvenation_times: Optional[Tuple[float, ...]] = None
    live: Optional[object] = None
    flight: Optional[Tuple[object, ...]] = None
    profile: Optional[object] = None
    #: Arrivals refused because every node was in downtime -- always 0
    #: on the single-node system (refusals are counted as losses with
    #: reason ``downtime``); cluster/fleet substrates report them here
    #: as well as in ``lost``.
    refused: int = 0
    #: Per-node stats (``repro.cluster.metrics.NodeStats``) on cluster
    #: and fleet substrates; ``None`` on the single-node system.
    nodes: Optional[Tuple[object, ...]] = None

    @property
    def throughput(self) -> float:
        """Completed transactions per second of simulated time."""
        if self.sim_duration_s <= 0.0:
            return 0.0
        return self.completed / self.sim_duration_s


@dataclass(frozen=True)
class ReplicatedResult:
    """Aggregate over independent replications of the same scenario."""

    runs: Tuple[RunResult, ...]

    def __post_init__(self) -> None:
        if not self.runs:
            raise ValueError("need at least one replication")

    @property
    def n_replications(self) -> int:
        return len(self.runs)

    @property
    def avg_response_time(self) -> float:
        """Mean over replications of the per-replication average RT."""
        return sum(r.avg_response_time for r in self.runs) / len(self.runs)

    @property
    def loss_fraction(self) -> float:
        """Mean over replications of the per-replication loss fraction."""
        return sum(r.loss_fraction for r in self.runs) / len(self.runs)

    @property
    def rejuvenations(self) -> float:
        """Mean rejuvenation count per replication."""
        return sum(r.rejuvenations for r in self.runs) / len(self.runs)

    @property
    def gc_count(self) -> float:
        """Mean GC count per replication."""
        return sum(r.gc_count for r in self.runs) / len(self.runs)

    def response_time_interval(
        self, confidence: float = 0.95
    ) -> Tuple[float, float, float]:
        """``(mean, low, high)`` t-interval over replication average RTs."""
        return mean_confidence_interval(
            [r.avg_response_time for r in self.runs], confidence
        )

    def loss_interval(
        self, confidence: float = 0.95
    ) -> Tuple[float, float, float]:
        """``(mean, low, high)`` t-interval over replication loss fractions."""
        return mean_confidence_interval(
            [r.loss_fraction for r in self.runs], confidence
        )

    def merged_live(self):
        """Per-run live aggregators folded in replication order.

        ``None`` when no run carried live telemetry.  Submission-order
        folding keeps the merged sketch bit-identical between serial
        and process-pool backends.
        """
        from repro.obs.live import merge_live

        return merge_live(run.live for run in self.runs)

    def merged_profile(self):
        """Per-run DES profiles folded in replication order (or None)."""
        from repro.obs.live import merge_profiles

        return merge_profiles(run.profile for run in self.runs)
