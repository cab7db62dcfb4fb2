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

from repro.core.spec import PolicySpec
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.jobs import ReplicationJob, run_jobs
from repro.experiments.scale import Scale
from repro.experiments.tables import ExperimentResult, Series, Table
from repro.systems.cluster import ClusterSpec
from repro.systems.schedulers import SchedulerSpec

N_NODES = 4
CLUSTER_LOADS = (2.0, 9.0)  # per-node offered load in CPUs


def _scenarios():
    """(label, per-node config, policy, balancer, scheduler) per curve."""
    sraa = PolicySpec.sraa(2, 5, 3)
    downtime = dataclasses.replace(
        PAPER_CONFIG, rejuvenation_downtime_s=30.0
    )
    rolling = SchedulerSpec.rolling(min_gap_s=30.0, max_nodes_down=1)
    return [
        ("no rejuvenation / RR", PAPER_CONFIG, PolicySpec.none(),
         "round_robin", None),
        ("SRAA(2,5,3) / RR", PAPER_CONFIG, sraa, "round_robin", None),
        ("SRAA(2,5,3) / JSQ", PAPER_CONFIG, sraa, "jsq", None),
        ("SRAA + 30s downtime / rolling", downtime, sraa, "round_robin",
         rolling),
    ]


def run_cluster(scale: Scale, seed: int = 0) -> ExperimentResult:
    """The cluster scenario grid at the scale's transaction budget."""
    scenarios = _scenarios()
    # The whole cluster sees N_NODES times the per-node load and runs
    # scale.transactions in total, so the spec scales neither.
    jobs = [
        ReplicationJob(
            config=config,
            arrival=ArrivalSpec.poisson(
                N_NODES * config.arrival_rate_for_load(load)
            ),
            policy=policy,
            n_transactions=scale.transactions,
            seed=seed,
            tag=(label, load),
            system=ClusterSpec(
                n_nodes=N_NODES,
                balancer=balancer,
                scheduler=scheduler,
                scale_arrivals=False,
                scale_transactions=False,
            ),
        )
        for label, config, policy, balancer, scheduler in scenarios
        for load in CLUSTER_LOADS
    ]
    runs = iter(run_jobs(jobs))
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
    for label, *_ in scenarios:
        rt_series = Series(label=label)
        loss_series = Series(label=label)
        for load in CLUSTER_LOADS:
            result = next(runs)
            rt_series.add(load, result.avg_response_time)
            loss_series.add(load, result.loss_fraction)
        rt_table.add_series(rt_series)
        loss_table.add_series(loss_series)
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
