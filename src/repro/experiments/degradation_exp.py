"""Slow-drift study on the eroding-capacity model (beyond the paper).

Runs the ref.-[3] degrading system -- the Section-3 node reduced to an
M/M/c queue, with a :class:`~repro.faults.injectors.CapacityErosion`
fault taking its CPUs one at a time until rejuvenation restores them
-- under Poisson traffic at several erosion speeds, for the three
detector families suited to slow drift: bucket (SRAA), trend
(Mann-Kendall), and CUSUM.  Complements the e-commerce experiments,
whose degradation is abrupt (GC stalls): a detector that shines there
may lag here and vice versa.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.sla import ServiceLevelObjective
from repro.core.spec import PolicySpec
from repro.ecommerce.config import SystemConfig
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.jobs import ReplicationJob, run_jobs
from repro.experiments.scale import Scale
from repro.experiments.tables import ExperimentResult, Series, Table
from repro.faults.injectors import CapacityErosion

#: The degrading exchange: 8 workers, mean service 2 s, load 4 Erlangs.
CONFIG = SystemConfig(cpus=8, service_rate=0.5).without_degradation()
ARRIVAL = ArrivalSpec.poisson(2.0)
MIN_CAPACITY = 2
SLO = ServiceLevelObjective(mean=2.0, std=2.0)

#: Mean seconds between capacity erosions (x axis: fast -> slow aging).
EROSION_PERIODS_S: Tuple[float, ...] = (60.0, 180.0, 600.0)


def detector_families() -> List[Tuple[str, PolicySpec]]:
    """(label, policy spec) for the slow-drift contenders."""
    return [
        ("none", PolicySpec.none()),
        ("SRAA(2,3,3)", PolicySpec.sraa(2, 3, 3, slo=SLO)),
        ("trend(10,10)", PolicySpec("trend", {"n": 10, "window": 10})),
        ("CUSUM(.5,5)", PolicySpec("cusum", slo=SLO)),
    ]


def run_degradation(scale: Scale, seed: int = 0) -> ExperimentResult:
    """Sweep erosion speed x detector family."""
    families = detector_families()
    jobs = [
        ReplicationJob(
            config=CONFIG,
            arrival=ARRIVAL,
            policy=policy,
            n_transactions=scale.transactions,
            seed=seed + replication,
            tag=(label, period, replication),
            faults=(CapacityErosion(1.0 / period, MIN_CAPACITY),),
        )
        for label, policy in families
        for period in EROSION_PERIODS_S
        for replication in range(scale.replications)
    ]
    runs = run_jobs(jobs)
    rt_table = Table(
        title="Degradable system: average response time vs erosion period",
        x_label="erosion_period_s",
        y_label="avg_response_time_s",
    )
    loss_table = Table(
        title="Degradable system: loss fraction vs erosion period",
        x_label="erosion_period_s",
        y_label="loss_fraction",
    )
    cursor = 0
    for label, _ in families:
        rt_series = Series(label=label)
        loss_series = Series(label=label)
        for period in EROSION_PERIODS_S:
            cell = runs[cursor : cursor + scale.replications]
            cursor += scale.replications
            rt = sum(result.avg_response_time for result in cell)
            loss = sum(result.loss_fraction for result in cell)
            rt_series.add(period, rt / scale.replications)
            loss_series.add(period, loss / scale.replications)
        rt_table.add_series(rt_series)
        loss_table.add_series(loss_series)
    return ExperimentResult(
        experiment_id="degradation",
        description=(
            "Detector families on the eroding-capacity substrate of "
            "ref. [3] (beyond the paper)"
        ),
        tables=[rt_table, loss_table],
        paper_expectations=[
            "expected shape: unmanaged response times blow up once "
            "capacity erodes below the offered load; every detector "
            "family controls the drift, trading loss for response time "
            "in its own way",
            "faster erosion (smaller period) needs more rejuvenations "
            "and costs more everywhere",
        ],
    )
