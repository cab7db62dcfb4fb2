"""The Section-4.1 autocorrelation study.

Five independent replications of 100,000 M/M/16 response times at
``lambda = 1.6`` (the maximum load of interest), first 10,000 discarded
as warm-up, lag-1 coefficient tested against ``1.96 / sqrt(90,000)``.
The paper finds a significant coefficient in only one of five
replications and concludes that first-order correlation "plays a minor
role" even at the maximum load.
"""

from __future__ import annotations

import numpy as np

from repro.ctmc.birth_death import MMcQueueLengthProcess
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.jobs import ReplicationJob, run_jobs
from repro.experiments.scale import Scale
from repro.experiments.tables import ExperimentResult, Series, Table
from repro.stats.autocorrelation import (
    is_significant,
    lag1_autocorrelation,
    significance_threshold,
)

#: The paper's warm-up fraction (10,000 of 100,000).
WARMUP_FRACTION = 0.1
#: The paper's study load.
ARRIVAL_RATE = 1.6


def run_autocorrelation(scale: Scale, seed: int = 0) -> ExperimentResult:
    """Run the study at the scale's transaction count and replications."""
    warmup = int(scale.transactions * WARMUP_FRACTION)
    effective = scale.transactions - warmup
    threshold = significance_threshold(effective)
    replications = max(scale.replications, 5)
    table = Table(
        title=(
            f"Lag-1 autocorrelation of M/M/16 response times at "
            f"lambda={ARRIVAL_RATE} ({replications} replications of "
            f"{scale.transactions}, warm-up {warmup})"
        ),
        x_label="replication",
        y_label="gamma_hat",
    )
    gamma_series = Series(label="gamma_hat")
    threshold_series = Series(label="threshold 1.96/sqrt(N)")
    # The M/M/c reduction of the Section-3 node, as in
    # repro.ecommerce.runner.simulate_mmc_response_times.
    jobs = [
        ReplicationJob(
            config=PAPER_CONFIG.without_degradation(),
            arrival=ArrivalSpec.poisson(ARRIVAL_RATE),
            policy=None,
            n_transactions=scale.transactions,
            seed=seed + rep,
            collect_response_times=True,
            tag=("replication", rep),
        )
        for rep in range(replications)
    ]
    significant = 0
    for rep, run in enumerate(run_jobs(jobs)):
        rts = np.asarray(run.response_times)
        gamma = lag1_autocorrelation(rts, warmup=warmup)
        gamma_series.add(rep, gamma)
        threshold_series.add(rep, threshold)
        if is_significant(gamma, effective):
            significant += 1
    table.add_series(gamma_series)
    table.add_series(threshold_series)
    table.notes.append(
        f"{significant} of {replications} replications significant at 95 %"
    )
    # Companion check: is the paper's 10 % warm-up discard generous
    # enough?  Compare it with the analytic relaxation time of the
    # queue-length CTMC at each load.
    warmup_table = Table(
        title=(
            "Warm-up adequacy: queue-length relaxation time vs the "
            "paper's 10 % discard"
        ),
        x_label="load_cpus",
        y_label="seconds",
    )
    relax_series = Series(label="relaxation time (L1 < 0.01)")
    discard_series = Series(label="discard window (10 % of run)")
    for load in (2.0, 8.0, 9.0):
        rate = load * 0.2
        process = MMcQueueLengthProcess(rate, 0.2, 16, capacity=150)
        relax_series.add(load, process.time_to_near_steady_state(0.01))
        discard_series.add(load, warmup / rate)
    warmup_table.add_series(relax_series)
    warmup_table.add_series(discard_series)
    return ExperimentResult(
        experiment_id="autocorr",
        description="First-order autocorrelation study (Section 4.1)",
        tables=[table, warmup_table],
        paper_expectations=[
            "only 1 of 5 replications shows |gamma_hat| > 1.96/sqrt(90000)",
            "first-order correlation plays a minor role even at the "
            "maximum load of interest",
        ],
    )
