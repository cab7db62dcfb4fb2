"""Fault injection, adversarial scenarios, and policy robustness scoring.

The paper evaluates its detectors under a single aging mode -- the GC
stalls of the Section-3 model.  This package scripts every *other*
regime a deployed detector faces (workload shifts, flash crowds,
heavy-tailed contamination, crashes, false-aging blips, scripted GC
thrash, the capacity erosion of ref. [3]) and scores every policy
against machine-checkable ground truth:

* :mod:`repro.faults.injectors` -- composable, picklable fault
  injections armed on the DES clock.
* :mod:`repro.faults.scenario` -- :class:`FaultScenario`: a timeline
  of injections plus ground-truth degradation intervals, with a
  dict/YAML loader.
* :mod:`repro.faults.zoo` -- the curated built-in scenarios.
* :mod:`repro.faults.campaign` -- (scenario x policy x replication)
  fan-out over :mod:`repro.exec` with common random numbers.
* :mod:`repro.faults.score` -- detection latency, missed detections,
  false alarms per healthy hour, recovery cost.

CLI: ``repro faults list|run|score``; experiments registry id
``faults`` (alias ``robustness``).
"""

from repro.faults.campaign import (
    DEFAULT_POLICIES,
    CampaignResult,
    campaign_jobs,
    run_campaign,
    score_trace,
)
from repro.faults.injectors import (
    INJECTION_TYPES,
    AgingAcceleration,
    CapacityErosion,
    FaultInjection,
    HeavyTailContamination,
    NodeCrash,
    NodeHang,
    ServiceSlowdown,
    TrafficSurge,
    WorkloadRamp,
    WorkloadShift,
)
from repro.faults.scenario import (
    FaultScenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
)
from repro.faults.score import (
    PolicyScore,
    RunScore,
    format_scores,
    score_policy,
    score_run,
    write_scores_csv,
)
from repro.faults.zoo import (
    builtin_scenarios,
    get_scenario,
    scenario_names,
)

__all__ = [
    "AgingAcceleration",
    "CampaignResult",
    "CapacityErosion",
    "DEFAULT_POLICIES",
    "FaultInjection",
    "FaultScenario",
    "HeavyTailContamination",
    "INJECTION_TYPES",
    "NodeCrash",
    "NodeHang",
    "PolicyScore",
    "RunScore",
    "ServiceSlowdown",
    "TrafficSurge",
    "WorkloadRamp",
    "WorkloadShift",
    "builtin_scenarios",
    "campaign_jobs",
    "format_scores",
    "get_scenario",
    "load_scenario",
    "run_campaign",
    "save_scenario",
    "scenario_from_dict",
    "scenario_names",
    "score_policy",
    "score_run",
    "score_trace",
    "write_scores_csv",
]
