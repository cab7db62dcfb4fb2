"""Cluster experiment (beyond the paper; companion work [2]).

Runs a 4-node cluster of Section-3 systems at a low and a high per-node
load under the scenario grid {no rejuvenation, per-node SRAA(2,5,3)} x
{round-robin, join-shortest-queue}, plus a rolling-coordinated variant
with restart downtime.  Documents that the single-server conclusions
survive the cluster deployment: per-node monitoring rescues the cluster
from the GC-driven soft failure at a few percent transaction loss.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.cluster.balancer import JoinShortestQueue, LoadBalancer, RoundRobin
from repro.cluster.coordinator import RollingCoordinator
from repro.core.buckets import SRAA
from repro.core.sla import PAPER_SLO
from repro.ecommerce.config import PAPER_CONFIG, SystemConfig
from repro.ecommerce.system import ECommerceSystem
from repro.ecommerce.workload import PoissonArrivals
from repro.experiments.scale import Scale
from repro.experiments.tables import ExperimentResult, Series, Table

N_NODES = 4
CLUSTER_LOADS = (2.0, 9.0)  # per-node offered load in CPUs


def _sraa_factory():
    return SRAA(PAPER_SLO, sample_size=2, n_buckets=5, depth=3)


def _run_scenario(
    label: str,
    scale: Scale,
    seed: int,
    rt_table: Table,
    loss_table: Table,
    config: SystemConfig = PAPER_CONFIG,
    policy_factory: Callable = _sraa_factory,
    balancer_factory: Callable[[], Optional[LoadBalancer]] = lambda: None,
    coordinator_factory: Callable[[], Optional[RollingCoordinator]] = (
        lambda: None
    ),
) -> None:
    rt_series = Series(label=label)
    loss_series = Series(label=label)
    for load in CLUSTER_LOADS:
        rate = N_NODES * config.arrival_rate_for_load(load)
        cluster = ECommerceSystem(
            config,
            PoissonArrivals(rate),
            policy=policy_factory,
            seed=seed,
            n_nodes=N_NODES,
            balancer=balancer_factory(),
            coordinator=coordinator_factory(),
        )
        result = cluster.run(scale.transactions)
        rt_series.add(load, result.avg_response_time)
        loss_series.add(load, result.loss_fraction)
    rt_table.add_series(rt_series)
    loss_table.add_series(loss_series)


def run_cluster(scale: Scale, seed: int = 0) -> ExperimentResult:
    """The cluster scenario grid at the scale's transaction budget."""
    rt_table = Table(
        title=f"{N_NODES}-node cluster: average response time",
        x_label="load_per_node_cpus",
        y_label="avg_response_time_s",
    )
    loss_table = Table(
        title=f"{N_NODES}-node cluster: fraction of transactions lost",
        x_label="load_per_node_cpus",
        y_label="loss_fraction",
    )
    _run_scenario(
        "no rejuvenation / RR",
        scale,
        seed,
        rt_table,
        loss_table,
        policy_factory=lambda: None,
        balancer_factory=RoundRobin,
    )
    _run_scenario(
        "SRAA(2,5,3) / RR",
        scale,
        seed,
        rt_table,
        loss_table,
        balancer_factory=RoundRobin,
    )
    _run_scenario(
        "SRAA(2,5,3) / JSQ",
        scale,
        seed,
        rt_table,
        loss_table,
        balancer_factory=JoinShortestQueue,
    )
    downtime = dataclasses.replace(
        PAPER_CONFIG, rejuvenation_downtime_s=30.0
    )
    _run_scenario(
        "SRAA + 30s downtime / rolling",
        scale,
        seed,
        rt_table,
        loss_table,
        config=downtime,
        balancer_factory=RoundRobin,
        coordinator_factory=lambda: RollingCoordinator(
            min_gap_s=30.0, max_nodes_down=1
        ),
    )
    return ExperimentResult(
        experiment_id="cluster",
        description=(
            "Cluster deployment of the rejuvenation algorithms "
            "(companion work [2]; beyond this paper)"
        ),
        tables=[rt_table, loss_table],
        paper_expectations=[
            "not a figure of this paper; [2] reports that the "
            "single-server conclusions carry over to clusters",
            "expected shape: unmanaged cluster melts down at high "
            "per-node load; per-node SRAA controls it for a few percent "
            "loss; JSQ does not hurt; rolling restarts bound concurrent "
            "downtime",
        ],
    )
