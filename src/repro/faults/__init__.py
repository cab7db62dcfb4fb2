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

from repro._lazy import lazy_exports

_EXPORTS = {
    "CampaignResult": ".campaign",
    "DEFAULT_POLICIES": ".campaign",
    "campaign_jobs": ".campaign",
    "run_campaign": ".campaign",
    "score_trace": ".campaign",
    "AgingAcceleration": ".injectors",
    "CapacityErosion": ".injectors",
    "FaultInjection": ".injectors",
    "HeavyTailContamination": ".injectors",
    "INJECTION_TYPES": ".injectors",
    "NodeCrash": ".injectors",
    "NodeHang": ".injectors",
    "ServiceSlowdown": ".injectors",
    "TrafficSurge": ".injectors",
    "WorkloadRamp": ".injectors",
    "WorkloadShift": ".injectors",
    "FaultScenario": ".scenario",
    "load_scenario": ".scenario",
    "save_scenario": ".scenario",
    "scenario_from_dict": ".scenario",
    "PolicyScore": ".score",
    "RunScore": ".score",
    "format_scores": ".score",
    "score_policy": ".score",
    "score_run": ".score",
    "write_scores_csv": ".score",
    "builtin_scenarios": ".zoo",
    "get_scenario": ".zoo",
    "scenario_names": ".zoo",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
