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
from functools import partial
from typing import Callable, List, Tuple

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
from repro.ecommerce.metrics import ReplicatedResult
from repro.ecommerce.runner import poisson_jobs
from repro.exec.jobs import run_cells
from repro.experiments.scale import Scale
from repro.experiments.tables import ExperimentResult, Series, Table

#: Ablations compare one low-load and one high-load operating point.
ABLATION_LOADS: Tuple[float, float] = (0.5, 9.0)


def _sraa253() -> SRAA:
    return SRAA(PAPER_SLO, sample_size=2, n_buckets=5, depth=3)


def _saraa1031(schedule: Callable[[int, int, int], int]) -> SARAA:
    return SARAA(
        PAPER_SLO, sample_size=10, n_buckets=3, depth=1, schedule=schedule
    )


def _clta30() -> CLTA:
    return CLTA(PAPER_SLO, sample_size=30, z=1.96)


#: One variant: its label, the system it runs on and its policy source.
Variant = Tuple[str, SystemConfig, Callable[[], object]]


def ablation_variants() -> List[Tuple[str, List[Variant]]]:
    """(table title, variants) for each ablation, in table order.

    Every policy source is a module-level function or a ``partial`` of
    one, so the jobs pickle and a process pool runs all of them.
    """
    queue_kill = dataclasses.replace(
        PAPER_CONFIG, rejuvenation_kills_queued=True
    )
    stop_world = dataclasses.replace(
        PAPER_CONFIG, gc_freezes_new_threads=True
    )
    downtime = dataclasses.replace(
        PAPER_CONFIG, rejuvenation_downtime_s=60.0
    )
    deterministic = dataclasses.replace(
        PAPER_CONFIG, service_distribution="deterministic"
    )
    heavy_tailed = dataclasses.replace(
        PAPER_CONFIG, service_distribution="lognormal", service_cv=3.0
    )
    return [
        (
            "Ablation 1: rejuvenation semantics (SRAA 2,5,3)",
            [
                ("queue survives (default)", PAPER_CONFIG, _sraa253),
                ("queue dropped", queue_kill, _sraa253),
            ],
        ),
        (
            "Ablation 2: GC stop-the-world semantics (SRAA 2,5,3)",
            [
                ("running threads only (default)", PAPER_CONFIG, _sraa253),
                ("freezes new threads too", stop_world, _sraa253),
            ],
        ),
        (
            "Ablation 3: rejuvenation downtime (SRAA 2,5,3)",
            [
                ("instantaneous (default)", PAPER_CONFIG, _sraa253),
                ("60 s downtime, arrivals refused", downtime, _sraa253),
            ],
        ),
        (
            "Ablation 4: SARAA acceleration schedule (n=10, K=3, D=1)",
            [
                (
                    "linear (paper)",
                    PAPER_CONFIG,
                    partial(_saraa1031, linear_acceleration),
                ),
                ("none", PAPER_CONFIG, partial(_saraa1031, no_acceleration)),
                (
                    "geometric",
                    PAPER_CONFIG,
                    partial(_saraa1031, geometric_acceleration),
                ),
            ],
        ),
        (
            "Ablation 5: service-time law, CLTA(30) vs SRAA(2,5,3) "
            "(D1 probe)",
            [
                ("exp/CLTA", PAPER_CONFIG, _clta30),
                ("exp/SRAA", PAPER_CONFIG, _sraa253),
                ("det/CLTA", deterministic, _clta30),
                ("det/SRAA", deterministic, _sraa253),
                ("lognormal-cv3/CLTA", heavy_tailed, _clta30),
                ("lognormal-cv3/SRAA", heavy_tailed, _sraa253),
            ],
        ),
    ]


def run_ablations(scale: Scale, seed: int = 0) -> ExperimentResult:
    """Run all five ablations at a reduced load grid, in one map."""
    ablations = ablation_variants()
    variants = [variant for _, table in ablations for variant in table]
    cells = iter(
        run_cells(
            [
                poisson_jobs(
                    config, load, policy, scale.transactions,
                    scale.replications, seed,
                )
                for _, config, policy in variants
                for load in ABLATION_LOADS
            ]
        )
    )
    tables: List[Table] = []
    for title, table_variants in ablations:
        table = Table(title=title, x_label="load_cpus", y_label="value")
        for label, _, _ in table_variants:
            rt_series = Series(label=f"{label} RT")
            loss_series = Series(label=f"{label} loss")
            for load in ABLATION_LOADS:
                replicated = ReplicatedResult(runs=next(cells))
                rt_series.add(load, replicated.avg_response_time)
                loss_series.add(load, replicated.loss_fraction)
            table.add_series(rt_series)
            table.add_series(loss_series)
        tables.append(table)

    return ExperimentResult(
        experiment_id="ablations",
        description="Sensitivity of the reproduction to modelling choices",
        tables=tables,
        paper_expectations=[
            "not in the paper -- these quantify the text's ambiguities; "
            "see DESIGN.md section 5",
        ],
    )
