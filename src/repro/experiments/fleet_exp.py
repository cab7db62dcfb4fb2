"""Fleet experiment: rejuvenation schedulers at fleet scale.

Runs a sharded :class:`~repro.systems.fleet.FleetSystem` of Section-3
nodes at a low and a high per-node load under per-node SRAA(2,5,3) with
a 60 s restart downtime, comparing the fleet-level scheduling
disciplines of :mod:`repro.systems.schedulers`: unrestricted grants,
rolling restarts under a capacity floor, and canary-first waves.  The
deliverable is the trade-off the schedulers encode -- the floor and the
canary bound how much serving capacity rejuvenation may take away at
once (peak concurrently-down nodes), at the price of deferring some
restarts on aged nodes.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.core.spec import PolicySpec
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.jobs import ReplicationJob, run_jobs
from repro.experiments.scale import Scale
from repro.experiments.tables import ExperimentResult, Series, Table
from repro.systems.fleet import FleetSpec
from repro.systems.schedulers import SchedulerSpec

#: Per-node offered load (CPUs): one calm point, one aging-heavy point.
FLEET_LOADS = (2.0, 9.0)

#: Restart downtime that makes scheduling decisions consequential.
DOWNTIME_S = 60.0

#: Fleet size / shard count per scale label (per-node transaction
#: budget matches the 4-node cluster experiment at the same scale).
_FLEET_SIZES = {"smoke": (24, 4), "quick": (48, 6), "paper": (96, 8)}


def _fleet_shape(scale: Scale) -> Tuple[int, int]:
    return _FLEET_SIZES.get(scale.label, _FLEET_SIZES["smoke"])


def peak_nodes_down(
    intervals: List[Tuple[float, float]], horizon_s: Optional[float] = None
) -> int:
    """The maximum number of overlapping downtime intervals.

    ``intervals`` is a list of ``(start, end)`` pairs (e.g. each
    rejuvenation time and the end of its restart downtime); a plain
    sweep over +1/-1 events, with ends sorted before coincident starts
    so back-to-back restarts do not count as overlapping.
    """
    events = []
    for start, end in intervals:
        if horizon_s is not None:
            end = min(end, horizon_s)
        if end > start:
            events.append((start, 1))
            events.append((end, -1))
    peak = level = 0
    for _, delta in sorted(events, key=lambda event: (event[0], event[1])):
        level += delta
        peak = max(peak, level)
    return peak


def _schedulers() -> List[Tuple[str, SchedulerSpec]]:
    """(label, scheduler) per curve."""
    return [
        ("unrestricted grants", SchedulerSpec.unrestricted()),
        (
            "rolling (floor 0.8)",
            SchedulerSpec.rolling(min_gap_s=10.0, capacity_floor=0.8),
        ),
        (
            "canary (120s soak, floor 0.8)",
            SchedulerSpec.canary(
                canary_soak_s=120.0,
                wave_quiet_s=600.0,
                capacity_floor=0.8,
            ),
        ),
    ]


def run_fleet(scale: Scale, seed: int = 0) -> ExperimentResult:
    """The fleet scheduler grid at the scale's transaction budget."""
    n_nodes, shards = _fleet_shape(scale)
    config = dataclasses.replace(
        PAPER_CONFIG, rejuvenation_downtime_s=DOWNTIME_S
    )
    schedulers = _schedulers()
    # Same per-node budget as the cluster experiment: scale.transactions
    # across 4 nodes there, so n_nodes/4 times that for the whole fleet.
    n_transactions = scale.transactions * n_nodes // 4
    jobs = [
        ReplicationJob(
            config=config,
            arrival=ArrivalSpec.poisson(config.arrival_rate_for_load(load)),
            policy=PolicySpec.sraa(2, 5, 3),
            n_transactions=n_transactions,
            seed=seed,
            tag=(label, load),
            system=FleetSpec(
                n_nodes=n_nodes, shards=shards, scheduler=scheduler
            ),
        )
        for label, scheduler in schedulers
        for load in FLEET_LOADS
    ]
    runs = iter(run_jobs(jobs))
    shape = f"{n_nodes}-node / {shards}-shard fleet"
    rt_table = Table(
        title=f"{shape}: average response time",
        x_label="load_per_node_cpus",
        y_label="avg_response_time_s",
    )
    loss_table = Table(
        title=f"{shape}: fraction of transactions lost",
        x_label="load_per_node_cpus",
        y_label="loss_fraction",
    )
    down_table = Table(
        title=f"{shape}: peak nodes simultaneously in restart downtime",
        x_label="load_per_node_cpus",
        y_label="peak_nodes_down",
    )
    tables = (rt_table, loss_table, down_table)
    for label, _ in schedulers:
        rt_series = Series(label=label)
        loss_series = Series(label=label)
        down_series = Series(label=label)
        for load in FLEET_LOADS:
            result = next(runs)
            # Every grant downs its node for exactly DOWNTIME_S.
            intervals = [
                (time, time + DOWNTIME_S)
                for time in result.rejuvenation_times
            ]
            rt_series.add(load, result.avg_response_time)
            loss_series.add(load, result.loss_fraction)
            down_series.add(
                load,
                peak_nodes_down(intervals, horizon_s=result.sim_duration_s),
            )
        rt_table.add_series(rt_series)
        loss_table.add_series(loss_series)
        down_table.add_series(down_series)
    return ExperimentResult(
        experiment_id="fleet",
        description=(
            "Sharded fleet deployment: rolling and canary rejuvenation "
            "schedulers under a capacity floor (beyond the paper)"
        ),
        tables=list(tables),
        paper_expectations=[
            "not a figure of this paper; extends the cluster companion "
            "work [2] to a sharded fleet",
            "expected shape: unrestricted grants let restarts pile up "
            "(highest peak-down) at high per-node load; the capacity "
            "floor caps peak-down per shard; the canary holds the fleet "
            "back during the soak, so its peak-down is lowest and its "
            "restarts are the most deferred",
        ],
    )
