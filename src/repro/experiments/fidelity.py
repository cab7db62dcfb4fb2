"""Fidelity report: every number the paper quotes vs this reproduction.

Runs exactly the scenarios behind the Section-5 quoted values
(:mod:`repro.experiments.paper_values`) and prints paper value, measured
value, and their ratio.  Documented divergences are flagged rather than
hidden.  This is EXPERIMENTS.md's headline table, regenerated live.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.spec import PolicySpec
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.metrics import ReplicatedResult
from repro.ecommerce.runner import poisson_jobs
from repro.exec.jobs import run_cells
from repro.experiments.paper_values import QUOTED_VALUES, QuotedValue
from repro.experiments.scale import Scale
from repro.experiments.tables import ExperimentResult, Series, Table


def _policy_spec(algorithm: str, n: int, K: int, D: int) -> PolicySpec:
    if algorithm == "sraa":
        return PolicySpec.sraa(n, K, D)
    if algorithm == "saraa":
        return PolicySpec.saraa(n, K, D)
    if algorithm == "clta":
        return PolicySpec.clta(n, z=1.96)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _scenario_key(quoted: QuotedValue) -> Tuple[str, int, int, int, float]:
    return (quoted.algorithm, quoted.n, quoted.K, quoted.D, quoted.load_cpus)


def run_fidelity(scale: Scale, seed: int = 0) -> ExperimentResult:
    """Measure every quoted scenario and report ratios."""
    # One cell per distinct (policy, load) scenario, all in one map;
    # several quotes can share one cell.
    scenarios = list(dict.fromkeys(map(_scenario_key, QUOTED_VALUES)))
    cells = run_cells(
        [
            poisson_jobs(
                PAPER_CONFIG, load, _policy_spec(algorithm, n, K, D),
                scale.transactions, scale.replications, seed,
            )
            for algorithm, n, K, D, load in scenarios
        ]
    )
    measured = {
        key: (result.avg_response_time, result.loss_fraction)
        for key, result in zip(scenarios, map(ReplicatedResult, cells))
    }
    table = Table(
        title="Fidelity: paper-quoted values vs this reproduction",
        x_label="quote_index",
        y_label="value",
    )
    paper_series = Series(label="paper")
    measured_series = Series(label="measured")
    ratio_series = Series(label="measured/paper")
    notes = []
    for index, quoted in enumerate(QUOTED_VALUES):
        rt, loss = measured[_scenario_key(quoted)]
        value = rt if quoted.metric == "avg_rt_s" else loss
        paper_series.add(index, quoted.value)
        measured_series.add(index, value)
        ratio = value / quoted.value if quoted.value else float("nan")
        ratio_series.add(index, ratio)
        flag = "  [documented divergence D1]" if quoted.diverges else ""
        notes.append(
            f"index {index}: {quoted.key} ({quoted.metric}, "
            f"section {quoted.section}){flag}"
        )
    table.add_series(paper_series)
    table.add_series(measured_series)
    table.add_series(ratio_series)
    table.notes.extend(notes)
    return ExperimentResult(
        experiment_id="fidelity",
        description=(
            "Every Section-5 quoted number, measured live against the "
            "paper"
        ),
        tables=[table],
        paper_expectations=[
            "response-time quotes should land within a small factor "
            "(EXPERIMENTS.md targets ~0.3-3x at quick scale); the CLTA "
            "high-load response time is the documented divergence D1",
            "loss quotes are order-of-magnitude comparisons (tiny "
            "probabilities at finite replication counts)",
        ],
    )
