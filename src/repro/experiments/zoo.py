"""The policy zoo: every decision rule on the same system.

Not a paper figure -- an integration study putting the paper's three
algorithms side by side with every baseline the related work suggests
(static, deterministic/risk-based thresholds, periodic, trend,
never) plus a composite rule, at a low and a high load.  This is the
table a practitioner reads first: which detector family pays what,
where.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.buckets import SRAA
from repro.core.composite import AllOf
from repro.core.sla import PAPER_SLO
from repro.core.spec import PolicySpec
from repro.core.threshold import DeterministicThreshold
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.runner import run_replications
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.jobs import PolicySource
from repro.experiments.scale import Scale
from repro.experiments.tables import ExperimentResult, Series, Table

ZOO_LOADS = (0.5, 9.0)


def _threshold_and_sraa() -> AllOf:
    # Module-level (not a lambda) so the composite member pickles too.
    return AllOf(
        [DeterministicThreshold(20.0), SRAA(PAPER_SLO, 2, 2, 2)],
        memory=50,
    )


def zoo_members() -> List[Tuple[str, PolicySource]]:
    """(label, fresh-policy source) for every contender."""
    return [
        ("never", PolicySpec("never")),
        ("periodic(300)", PolicySpec("periodic", {"period": 300})),
        ("threshold(>20s)", PolicySpec("threshold", {"limit": 20.0})),
        ("static(K=5,D=3)", PolicySpec("static", {"K": 5, "D": 3})),
        ("SRAA(2,5,3)", PolicySpec.sraa(2, 5, 3)),
        ("SARAA(2,5,3)", PolicySpec.saraa(2, 5, 3)),
        ("CLTA(30,z=1.96)", PolicySpec.clta(30, z=1.96)),
        ("trend(n=5,w=12)", PolicySpec("trend", {"n": 5, "window": 12})),
        ("CUSUM(k=.5,h=5)", PolicySpec("cusum")),
        ("EWMA(lam=.2,L=3)", PolicySpec("ewma")),
        (
            "p95 > 30s (w=100)",
            PolicySpec(
                "quantile",
                {"q": 0.95, "limit": 30.0, "window": 100, "patience": 2},
            ),
        ),
        ("threshold AND sraa", _threshold_and_sraa),
    ]


def run_zoo(scale: Scale, seed: int = 0) -> ExperimentResult:
    """Run every policy at a low and a high load."""
    rt_table = Table(
        title="Policy zoo: average response time",
        x_label="load_cpus",
        y_label="avg_response_time_s",
    )
    loss_table = Table(
        title="Policy zoo: fraction of transactions lost",
        x_label="load_cpus",
        y_label="loss_fraction",
    )
    for label, policy in zoo_members():
        rt_series = Series(label=label)
        loss_series = Series(label=label)
        for load in ZOO_LOADS:
            rate = PAPER_CONFIG.arrival_rate_for_load(load)
            replicated = run_replications(
                PAPER_CONFIG,
                arrival=ArrivalSpec.poisson(rate),
                policy=policy,
                n_transactions=scale.transactions,
                replications=scale.replications,
                seed=seed,
            )
            rt_series.add(load, replicated.avg_response_time)
            loss_series.add(load, replicated.loss_fraction)
        rt_table.add_series(rt_series)
        loss_table.add_series(loss_series)
    return ExperimentResult(
        experiment_id="zoo",
        description=(
            "Every policy in the library on the Section-3 system "
            "(integration study, beyond the paper)"
        ),
        tables=[rt_table, loss_table],
        paper_expectations=[
            "expected shape: 'never' melts down at 9 CPUs; the naive "
            "threshold is burst-fragile (loss at low load); the paper's "
            "three algorithms control the RT for a few percent loss",
        ],
    )
