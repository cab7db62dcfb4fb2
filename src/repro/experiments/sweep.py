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
from repro.exec.jobs import PolicySource, ReplicationJob, run_cells
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
    """Results of one (configurations x loads) sweep.

    ``x_label`` names the x axis of both tables: ``load_cpus`` for the
    paper's sweeps, ``load_per_node_cpus`` for the cluster and the
    fleet, ``erosion_period_s`` for the eroding-capacity study.
    """

    results: Dict[str, Dict[float, ReplicatedResult]]
    loads: Tuple[float, ...]
    x_label: str = "load_cpus"

    def response_time_table(self, title: str) -> Table:
        """The figure's 'Average Response Time' panel."""
        return self._table(title, "avg_response_time_s", "avg_response_time")

    def loss_table(self, title: str) -> Table:
        """The figure's 'Average Fraction of Transaction Loss' panel."""
        return self._table(title, "loss_fraction", "loss_fraction")

    def _table(self, title: str, y_label: str, metric: str) -> Table:
        """One series per label of ``ReplicatedResult.<metric>``."""
        table = Table(title=title, x_label=self.x_label, y_label=y_label)
        for label, by_load in self.results.items():
            series = Series(label=label)
            for load, replicated in by_load.items():
                series.add(load, getattr(replicated, metric))
            table.add_series(series)
        return table


#: One grid cell: the curve's label, its x value and the cell's jobs.
Cell = Tuple[str, float, List[ReplicationJob]]


def run_sweep(
    grid: Sequence[Cell],
    loads: Tuple[float, ...],
    x_label: str = "load_cpus",
    backend: Union[ExecutionBackend, str, None] = None,
    progress: Optional[ProgressHook] = None,
) -> SweepResult:
    """Run a ``(label, x, jobs)`` grid in one map, grouped by label.

    ``loads`` are the grid's x values, in order.
    """
    cells = run_cells([jobs for _, _, jobs in grid], backend, progress)
    results: Dict[str, Dict[float, ReplicatedResult]] = {}
    for (label, load, _), runs in zip(grid, cells):
        results.setdefault(label, {})[load] = ReplicatedResult(runs=runs)
    return SweepResult(results=results, loads=loads, x_label=x_label)


def _sweep_grid(
    configs: Sequence[PolicyConfig],
    scale: Scale,
    system_config: SystemConfig,
    seed: int,
    warmup: int,
) -> List[Cell]:
    grid: List[Cell] = []
    for config in configs:
        for load_index, load in enumerate(scale.loads):
            rate = system_config.arrival_rate_for_load(load)
            jobs = [
                ReplicationJob(
                    config=system_config,
                    arrival=ArrivalSpec.poisson(rate),
                    policy=config.policy,
                    n_transactions=scale.transactions,
                    seed=seed + 1_000 * load_index + i,
                    warmup=warmup,
                    tag=(config.label, load, i),
                )
                for i in range(scale.replications)
            ]
            grid.append((config.label, load, jobs))
    return grid


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
    grid = _sweep_grid(configs, scale, system_config, seed, warmup)
    return [job for _, _, jobs in grid for job in jobs]


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

    The whole grid (:func:`sweep_jobs`) goes through ``backend`` in
    one map (``None``: the current default backend -- see
    :func:`repro.exec.use_backend`); results are reassembled in grid
    order, so the output is independent of the backend and of job
    completion order.
    """
    return run_sweep(
        _sweep_grid(configs, scale, system_config, seed, warmup),
        tuple(scale.loads),
        backend=backend,
        progress=progress,
    )
