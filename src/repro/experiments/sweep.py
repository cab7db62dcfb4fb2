"""Load sweeps over (configuration x offered load), the Section-5 design.

Every Section-5 figure is produced the same way: for each policy
configuration and each offered load, run ``replications`` independent
simulations of ``transactions`` transactions and plot the mean response
time (or mean loss fraction) against the load.  ``sweep_policies``
performs exactly that: :func:`sweep_jobs` enumerates the full
``(configuration, load, replication)`` grid as declarative jobs up
front, an execution backend fans them out (possibly over processes),
and the results are reassembled per configuration and load in
deterministic order.  Both metrics are returned so that figure pairs
(9/10, 12/13) share one simulation pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.sla import PAPER_SLO, ServiceLevelObjective
from repro.core.spec import PolicySpec
from repro.ecommerce.config import PAPER_CONFIG, SystemConfig
from repro.ecommerce.metrics import ReplicatedResult
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.backends import ExecutionBackend
from repro.exec.jobs import PolicySource, ReplicationJob, run_jobs
from repro.exec.progress import ProgressHook
from repro.experiments.scale import Scale
from repro.experiments.tables import Series, Table


@dataclass(frozen=True)
class PolicyConfig:
    """A labelled policy source, e.g. ``(n=2, K=5, D=3)`` for SRAA.

    ``policy`` is anything :func:`repro.exec.jobs.build_policy`
    accepts: a picklable :class:`~repro.core.spec.PolicySpec` (required
    for process-pool sweeps) or a zero-argument factory.
    """

    label: str
    policy: PolicySource


def sraa_config(
    n: int, K: int, D: int, slo: ServiceLevelObjective = PAPER_SLO
) -> PolicyConfig:
    """An SRAA configuration labelled the way the paper labels curves."""
    return PolicyConfig(
        label=f"(n={n}, K={K}, D={D})",
        policy=PolicySpec.sraa(n, K, D, slo=slo),
    )


@dataclass
class SweepResult:
    """Results of one (configurations x loads) sweep."""

    results: Dict[str, Dict[float, ReplicatedResult]]
    loads: Tuple[float, ...]

    def response_time_table(self, title: str) -> Table:
        """The figure's 'Average Response Time' panel."""
        table = Table(
            title=title,
            x_label="load_cpus",
            y_label="avg_response_time_s",
        )
        for label, by_load in self.results.items():
            series = Series(label=label)
            for load, replicated in by_load.items():
                series.add(load, replicated.avg_response_time)
            table.add_series(series)
        return table

    def loss_table(self, title: str) -> Table:
        """The figure's 'Average Fraction of Transaction Loss' panel."""
        table = Table(
            title=title,
            x_label="load_cpus",
            y_label="loss_fraction",
        )
        for label, by_load in self.results.items():
            series = Series(label=label)
            for load, replicated in by_load.items():
                series.add(load, replicated.loss_fraction)
            table.add_series(series)
        return table


def sweep_jobs(
    configs: Sequence[PolicyConfig],
    scale: Scale,
    system_config: SystemConfig = PAPER_CONFIG,
    seed: int = 0,
    warmup: int = 0,
) -> List[ReplicationJob]:
    """The full (configuration x load x replication) job grid, in order.

    This is the sweep's seed protocol in one place (pinned by
    ``tests/experiments/test_seed_protocol.py``): replication ``i`` at
    load index ``j`` uses master seed ``seed + 1000*j + i`` for *every*
    configuration -- common random numbers, so that curve differences
    reflect the policies and not the draws.
    """
    jobs: List[ReplicationJob] = []
    for config in configs:
        for load_index, load in enumerate(scale.loads):
            arrival_rate = system_config.arrival_rate_for_load(load)
            for i in range(scale.replications):
                jobs.append(
                    ReplicationJob(
                        config=system_config,
                        arrival=ArrivalSpec.poisson(arrival_rate),
                        policy=config.policy,
                        n_transactions=scale.transactions,
                        seed=seed + 1_000 * load_index + i,
                        warmup=warmup,
                        tag=(config.label, load, i),
                    )
                )
    return jobs


def sweep_policies(
    configs: Sequence[PolicyConfig],
    scale: Scale,
    system_config: SystemConfig = PAPER_CONFIG,
    seed: int = 0,
    warmup: int = 0,
    backend: Union[ExecutionBackend, str, None] = None,
    progress: Optional[ProgressHook] = None,
) -> SweepResult:
    """Run every configuration at every load of the scale.

    The whole grid is enumerated up front (:func:`sweep_jobs`) and
    fanned out through ``backend`` (``None``: the current default
    backend -- see :func:`repro.exec.use_backend`); results are
    reassembled in grid order, so the output is independent of the
    backend and of job completion order.
    """
    jobs = sweep_jobs(
        configs, scale, system_config=system_config, seed=seed, warmup=warmup
    )
    runs = run_jobs(jobs, backend, progress)
    results: Dict[str, Dict[float, ReplicatedResult]] = {}
    cursor = 0
    for config in configs:
        by_load: Dict[float, ReplicatedResult] = {}
        for load in scale.loads:
            chunk = runs[cursor : cursor + scale.replications]
            cursor += scale.replications
            by_load[load] = ReplicatedResult(runs=tuple(chunk))
        results[config.label] = by_load
    return SweepResult(results=results, loads=tuple(scale.loads))
