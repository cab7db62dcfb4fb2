"""The fault-campaign experiment: policy robustness beyond GC aging.

Runs the built-in scenario zoo (:mod:`repro.faults.zoo`) against the
paper's three contenders at their Section-5.6 parameters and reports
the robustness scores as figure-style tables: detection latency,
false alarms per healthy hour, and recovery cost per scenario.  The
scenario horizon scales with the experiment
:class:`~repro.experiments.scale.Scale` (smoke: 10 simulated minutes,
quick: 15, paper: a full hour).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.spec import PolicySpec
from repro.experiments.scale import Scale
from repro.experiments.tables import ExperimentResult, Series, Table
from repro.faults.campaign import run_campaign
from repro.faults.zoo import builtin_scenarios

#: Scale label -> scenario horizon in simulated seconds.
_HORIZONS: Dict[str, float] = {
    "smoke": 600.0,
    "quick": 900.0,
    "paper": 3600.0,
}

#: A robustness metric as a table: (PolicyScore attribute, title, y label).
Metric = Tuple[str, str, str]

LATENCY: Metric = (
    "mean_detection_latency_s", "mean detection latency (s)", "latency_s"
)
MISSED: Metric = (
    "missed_rate", "missed-detection rate", "missed_rate"
)
FALSE_ALARMS: Metric = (
    "false_alarms_per_healthy_hour",
    "false alarms per healthy hour",
    "false_alarms_per_healthy_hour",
)
RECOVERY_COST: Metric = (
    "mean_loss_fraction", "recovery cost (loss fraction)", "loss_fraction"
)


def horizon_for_scale(scale: Scale) -> float:
    """The scenario horizon matching an experiment scale."""
    return _HORIZONS.get(scale.label, _HORIZONS["quick"])


def campaign_tables(
    scale: Scale,
    seed: int,
    policies: Optional[Mapping[str, PolicySpec]],
    title_prefix: str,
    metrics: Sequence[Metric],
) -> List[Table]:
    """Run the zoo campaign at the scale; one table per metric.

    Each table has a series per policy over x = the scenario's index in
    the zoo.  ``policies`` of ``None`` runs the paper's three
    contenders.  A latency of ``None`` (nothing detected) is left out.
    """
    horizon_s = horizon_for_scale(scale)
    scenarios = list(builtin_scenarios(horizon_s).values())
    campaign = run_campaign(
        scenarios=scenarios,
        policies=policies,
        replications=scale.replications,
        seed=seed,
    )
    index_of = {s.name: float(i) for i, s in enumerate(scenarios)}
    notes = [
        f"x = {i:g}: {s.name} -- {s.description}"
        for i, s in enumerate(scenarios)
    ] + [
        f"horizon {horizon_s:g} s, {scale.replications} replication(s) "
        f"per cell, CRN seeds from {seed}"
    ]
    tables = [
        Table(
            title=f"{title_prefix}: {title}",
            x_label="scenario",
            y_label=y_label,
            notes=list(notes),
        )
        for _, title, y_label in metrics
    ]
    series: Dict[str, List[Series]] = {}
    for score in campaign.scores:
        if score.policy not in series:
            series[score.policy] = [Series(label=score.policy) for _ in tables]
            for table, curve in zip(tables, series[score.policy]):
                table.add_series(curve)
        x = index_of[score.scenario]
        for (attribute, _, _), curve in zip(metrics, series[score.policy]):
            value = getattr(score, attribute)
            if value is not None:
                curve.add(x, value)
    return tables


def run_faults(scale: Scale, seed: int = 0) -> ExperimentResult:
    """The robustness campaign as a registry experiment."""
    tables = campaign_tables(
        scale,
        seed,
        None,
        "Fault campaign",
        (LATENCY, FALSE_ALARMS, RECOVERY_COST),
    )
    return ExperimentResult(
        experiment_id="faults",
        description=(
            "Robustness of SRAA/SARAA/CLTA across the adversarial "
            "scenario zoo"
        ),
        tables=tables,
        paper_expectations=[
            "SRAA and SARAA ride out the false-aging blips, the "
            "traffic surge and the workload shift without false "
            "alarms; CLTA's single-test rule pays in false alarms "
            "(the Section-5.1 burst-tolerance design intent)",
            "every policy detects the genuine x3 slowdown; CLTA "
            "detects it fastest but at the highest loss, SRAA slowest "
            "at the lowest loss -- the latency/cost trade the paper "
            "prices across its figures",
        ],
    )
