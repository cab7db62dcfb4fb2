"""The detector head-to-head: paper's three vs the adaptive family.

Runs the full scenario zoo (:mod:`repro.faults.zoo`) against the
six-way lineup of :func:`repro.detect.head_to_head_policies` -- SRAA,
SARAA and CLTA at the paper's Section-5.6 parameters next to the
``ADAPTIVE``, ``ENTROPY`` and ``TREND`` detectors of
:mod:`repro.detect` at campaign-grade parameters -- and reports the
robustness scores as figure-style tables: detection latency, missed
rate, false alarms per healthy hour and recovery cost per scenario.

The headline is the ``workload_ramp`` scenario: a saturation ramp the
static baselines inevitably read as aging (SRAA pays tens of false
alarms per healthy hour) while the adaptive threshold recalibrates
along the drift and keeps a clean record for the genuine onset.
"""

from __future__ import annotations

from repro.detect import head_to_head_policies
from repro.experiments.faults_exp import (
    FALSE_ALARMS,
    LATENCY,
    MISSED,
    RECOVERY_COST,
    campaign_tables,
)
from repro.experiments.scale import Scale
from repro.experiments.tables import ExperimentResult


def run_detectors(scale: Scale, seed: int = 0) -> ExperimentResult:
    """The detector head-to-head as a registry experiment."""
    tables = campaign_tables(
        scale,
        seed,
        head_to_head_policies(),
        "Detector head-to-head",
        (LATENCY, MISSED, FALSE_ALARMS, RECOVERY_COST),
    )
    return ExperimentResult(
        experiment_id="detectors",
        description=(
            "Adaptive/entropy/trend detectors vs SRAA/SARAA/CLTA "
            "across the adversarial scenario zoo"
        ),
        tables=tables,
        paper_expectations=[
            "on the saturation ramp the static baselines read the "
            "healthy drift as aging (SRAA pays tens of false alarms "
            "per healthy hour) while the adaptive threshold "
            "recalibrates along it and stays clean -- the Moura et "
            "al. workload-shift robustness claim",
            "the trend projection detects the clean x3 slowdown "
            "earlier than SRAA (it fires on the forecast, not the "
            "level) but pays false alarms wherever the workload "
            "itself drifts upward",
            "the entropy detector rejuvenates least and loses the "
            "fewest transactions: distribution shape moves later "
            "than the mean, so it trades latency for recovery cost",
        ],
    )
