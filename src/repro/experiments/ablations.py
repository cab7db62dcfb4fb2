"""Ablation studies for the modelling decisions DESIGN.md calls out.

The paper's text under-specifies four mechanisms; each ablation varies
one of them at the Fig. 16 operating point (SRAA/SARAA/CLTA-relevant
configurations at a high and a low load) so their influence on the
reproduced numbers is on record:

* rejuvenation semantics -- does it drop queued transactions?
* GC semantics -- does an in-progress GC stall newly started threads?
* rejuvenation downtime -- instantaneous vs a 60 s restart window;
* SARAA acceleration schedule -- linear (paper) vs none vs geometric;
* service-time law -- exponential (paper) vs deterministic vs
  heavy-tailed, probing whether memorylessness drives the CLTA
  divergence D1 of EXPERIMENTS.md (it does not).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Sequence, Tuple

from repro.core.buckets import (
    CLTA,
    SARAA,
    SRAA,
    geometric_acceleration,
    linear_acceleration,
    no_acceleration,
)
from repro.core.sla import PAPER_SLO
from repro.ecommerce.config import PAPER_CONFIG, SystemConfig
from repro.ecommerce.runner import run_replications
from repro.ecommerce.spec import ArrivalSpec
from repro.experiments.scale import Scale
from repro.experiments.tables import ExperimentResult, Series, Table

#: Ablations compare one low-load and one high-load operating point.
ABLATION_LOADS: Tuple[float, float] = (0.5, 9.0)


def _measure(
    config: SystemConfig,
    policy_factory: Callable[[], object],
    load: float,
    scale: Scale,
    seed: int,
) -> Tuple[float, float]:
    """(avg RT, loss fraction) for one variant at one load."""
    rate = config.arrival_rate_for_load(load)
    replicated = run_replications(
        config,
        arrival=ArrivalSpec.poisson(rate),
        policy=policy_factory,
        n_transactions=scale.transactions,
        replications=scale.replications,
        seed=seed,
    )
    return replicated.avg_response_time, replicated.loss_fraction


def _variant_table(
    title: str,
    variants: Sequence[Tuple[str, SystemConfig, Callable[[], object]]],
    scale: Scale,
    seed: int,
) -> Table:
    table = Table(title=title, x_label="load_cpus", y_label="value")
    for label, config, factory in variants:
        rt_series = Series(label=f"{label} RT")
        loss_series = Series(label=f"{label} loss")
        for load in ABLATION_LOADS:
            rt, loss = _measure(config, factory, load, scale, seed)
            rt_series.add(load, rt)
            loss_series.add(load, loss)
        table.add_series(rt_series)
        table.add_series(loss_series)
    return table


def _sraa253() -> SRAA:
    return SRAA(PAPER_SLO, sample_size=2, n_buckets=5, depth=3)


def run_ablations(scale: Scale, seed: int = 0) -> ExperimentResult:
    """Run all four ablations at a reduced load grid."""
    tables: List[Table] = []

    queue_kill = dataclasses.replace(
        PAPER_CONFIG, rejuvenation_kills_queued=True
    )
    tables.append(
        _variant_table(
            "Ablation 1: rejuvenation semantics (SRAA 2,5,3)",
            [
                ("queue survives (default)", PAPER_CONFIG, _sraa253),
                ("queue dropped", queue_kill, _sraa253),
            ],
            scale,
            seed,
        )
    )

    stop_world = dataclasses.replace(
        PAPER_CONFIG, gc_freezes_new_threads=True
    )
    tables.append(
        _variant_table(
            "Ablation 2: GC stop-the-world semantics (SRAA 2,5,3)",
            [
                ("running threads only (default)", PAPER_CONFIG, _sraa253),
                ("freezes new threads too", stop_world, _sraa253),
            ],
            scale,
            seed,
        )
    )

    downtime = dataclasses.replace(
        PAPER_CONFIG, rejuvenation_downtime_s=60.0
    )
    tables.append(
        _variant_table(
            "Ablation 3: rejuvenation downtime (SRAA 2,5,3)",
            [
                ("instantaneous (default)", PAPER_CONFIG, _sraa253),
                ("60 s downtime, arrivals refused", downtime, _sraa253),
            ],
            scale,
            seed,
        )
    )

    def saraa_with(schedule: Callable[[int, int, int], int]):
        return lambda: SARAA(
            PAPER_SLO, sample_size=10, n_buckets=3, depth=1, schedule=schedule
        )

    tables.append(
        _variant_table(
            "Ablation 4: SARAA acceleration schedule (n=10, K=3, D=1)",
            [
                ("linear (paper)", PAPER_CONFIG, saraa_with(linear_acceleration)),
                ("none", PAPER_CONFIG, saraa_with(no_acceleration)),
                (
                    "geometric",
                    PAPER_CONFIG,
                    saraa_with(geometric_acceleration),
                ),
            ],
            scale,
            seed,
        )
    )

    def clta30():
        return CLTA(PAPER_SLO, sample_size=30, z=1.96)

    deterministic = dataclasses.replace(
        PAPER_CONFIG, service_distribution="deterministic"
    )
    heavy_tailed = dataclasses.replace(
        PAPER_CONFIG, service_distribution="lognormal", service_cv=3.0
    )
    tables.append(
        _variant_table(
            "Ablation 5: service-time law, CLTA(30) vs SRAA(2,5,3) "
            "(D1 probe)",
            [
                ("exp/CLTA", PAPER_CONFIG, clta30),
                ("exp/SRAA", PAPER_CONFIG, _sraa253),
                ("det/CLTA", deterministic, clta30),
                ("det/SRAA", deterministic, _sraa253),
                ("lognormal-cv3/CLTA", heavy_tailed, clta30),
                ("lognormal-cv3/SRAA", heavy_tailed, _sraa253),
            ],
            scale,
            seed,
        )
    )

    return ExperimentResult(
        experiment_id="ablations",
        description="Sensitivity of the reproduction to modelling choices",
        tables=tables,
        paper_expectations=[
            "not in the paper -- these quantify the text's ambiguities; "
            "see DESIGN.md section 5",
        ],
    )
