"""The built-in scenario zoo: curated adversarial campaigns.

Every scenario runs the Section-4.1 reduction of the paper's system
(16 CPUs, exponential service at ``mu = 0.2``/s, no intrinsic
degradation) so the *injections alone* control the ground truth: the
system is healthy exactly when the timeline says it is.  The canonical
aging signal is a x3 service slowdown -- at the paper's high load of
9 CPUs this pushes the offered load to 27 CPUs on 16, an unstable
queue whose response times grow without bound until a rejuvenation
sheds the backlog (and keep growing back, since the slowdown persists:
a fault the policies can only keep suppressing).

Timelines are laid out as fractions of a ``horizon_s`` parameter
(default one simulated hour), so the same zoo runs at CI scale
(``horizon_s=600``) and at study scale without re-deriving any
calibration.  The ground-truth calibration at the paper's parameters:

* healthy RT at load 9 is ~5.6 s -- below every SRAA bucket target
  (10, 15, 20, 25 s for the mean-5/std-5 SLO);
* a 15 s hang blip inflates in-flight RTs to ~15-20 s: above CLTA's
  6.789 s threshold (n=30, z=1.96) but too brief to climb SRAA's
  (D+1)*K = 20 net exceedances through escalating targets -- the
  ``false_aging`` scenario separates the two by false-alarm rate;
* the x3 slowdown makes RTs cross every target within a couple of
  minutes, so any trigger-capable policy detects it -- the score then
  differentiates on *latency* and *recovery cost*.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Tuple

from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.spec import ArrivalSpec
from repro.faults.injectors import (
    AgingAcceleration,
    HeavyTailContamination,
    NodeCrash,
    NodeHang,
    ServiceSlowdown,
    TrafficSurge,
    WorkloadRamp,
    WorkloadShift,
)
from repro.faults.scenario import FaultScenario

#: Minimum horizon the timeline fractions stay meaningful at.
MIN_HORIZON_S = 300.0

#: The paper's high-load operating point: 9 CPUs of offered load.
HIGH_LOAD_RATE = PAPER_CONFIG.arrival_rate_for_load(9.0)
#: A moderate operating point: 6 CPUs of offered load.
MODERATE_LOAD_RATE = PAPER_CONFIG.arrival_rate_for_load(6.0)
#: Past the knee: 20 CPUs of offered load on 16 servers -- saturation.
SATURATION_LOAD_RATE = PAPER_CONFIG.arrival_rate_for_load(20.0)

#: The canonical aging signal (see module docstring).
AGING_FACTOR = 3.0

#: The Section-4.1 reduction: no intrinsic degradation mechanisms.
BASE_CONFIG = PAPER_CONFIG.without_degradation()


def check_horizon(horizon_s: float) -> float:
    """``horizon_s`` as a float; ValueError unless finite and >= 300 s.

    Every front door (the CLI's ``--horizon``, the serve routes)
    validates here, so a bad horizon is a usage error, not a traceback.
    """
    if not math.isfinite(horizon_s) or horizon_s < MIN_HORIZON_S:
        raise ValueError(
            f"horizon must be a finite number >= {MIN_HORIZON_S:g} s "
            f"for the zoo timelines to stay meaningful, got {horizon_s!r}"
        )
    return float(horizon_s)


def _transactions(rate: float, horizon_s: float) -> int:
    return int(math.ceil(rate * horizon_s))


def aging_onset(horizon_s: float = 3600.0) -> FaultScenario:
    """Pure aging: a x3 slowdown at 50% of the horizon, nothing else."""
    h = check_horizon(horizon_s)
    onset = 0.5 * h
    return FaultScenario(
        name="aging_onset",
        description=(
            "clean x3 service slowdown at mid-run under high load -- "
            "the baseline detection task"
        ),
        config=BASE_CONFIG,
        arrival=ArrivalSpec.poisson(HIGH_LOAD_RATE),
        n_transactions=_transactions(HIGH_LOAD_RATE, h),
        injections=(ServiceSlowdown(at_s=onset, factor=AGING_FACTOR),),
        degraded=((onset, math.inf),),
        horizon_s=h,
    )


def workload_shift(horizon_s: float = 3600.0) -> FaultScenario:
    """A legitimate load step (6 -> 9 CPUs), then real aging later.

    The step raises response times to a new healthy plateau; a detector
    that fires on it mistakes an operating-point change for aging (the
    Moura et al. workload-shift confounder).
    """
    h = check_horizon(horizon_s)
    shift_at = 0.25 * h
    onset = 0.65 * h
    n = _transactions(MODERATE_LOAD_RATE, shift_at) + _transactions(
        HIGH_LOAD_RATE, h - shift_at
    )
    return FaultScenario(
        name="workload_shift",
        description=(
            "arrival-rate step from 6 to 9 CPUs of load (healthy), "
            "then a x3 slowdown"
        ),
        config=BASE_CONFIG,
        arrival=ArrivalSpec.poisson(MODERATE_LOAD_RATE),
        n_transactions=n,
        injections=(
            WorkloadShift.step(at_s=shift_at, rate=HIGH_LOAD_RATE),
            ServiceSlowdown(at_s=onset, factor=AGING_FACTOR),
        ),
        degraded=((onset, math.inf),),
        horizon_s=h,
    )


def workload_ramp(horizon_s: float = 3600.0) -> FaultScenario:
    """A sustained arrival ramp into saturation (healthy!), then aging.

    The rate drifts from the paper's high load (9 CPUs) past the
    capacity knee to 20 CPUs of offered load on 16 servers: response
    times grow *without any software fault* because the box is simply
    overloaded -- a capacity problem rejuvenation cannot fix, so every
    trigger before the real onset is a false alarm.  A static baseline
    (SRAA's escalating targets included) inevitably reads the drift as
    aging once response times pass its top target; an adaptive
    baseline recalibrates along the ramp and keeps its powder dry for
    the genuine x3 slowdown at 70% of the horizon (the Moura et al.
    stress test, pushed past the operating envelope).
    """
    h = check_horizon(horizon_s)
    ramp_start = 0.15 * h
    ramp_end = 0.45 * h
    onset = 0.7 * h
    steps = 10
    ramp = WorkloadRamp(
        start_s=ramp_start,
        end_s=ramp_end,
        from_rate=HIGH_LOAD_RATE,
        to_rate=SATURATION_LOAD_RATE,
        steps=steps,
    )
    # Expected arrivals under the piecewise-constant realisation: the
    # rate during ramp segment j (j = 0..steps-1) is from + delta*j/steps.
    span = ramp_end - ramp_start
    delta = SATURATION_LOAD_RATE - HIGH_LOAD_RATE
    ramp_arrivals = span * (
        HIGH_LOAD_RATE + delta * (steps - 1) / (2 * steps)
    )
    n = (
        _transactions(HIGH_LOAD_RATE, ramp_start)
        + int(math.ceil(ramp_arrivals))
        + _transactions(SATURATION_LOAD_RATE, h - ramp_end)
    )
    return FaultScenario(
        name="workload_ramp",
        description=(
            "arrival ramp from 9 to 20 CPUs of offered load "
            "(saturation, not aging), then a x3 slowdown"
        ),
        config=BASE_CONFIG,
        arrival=ArrivalSpec.poisson(HIGH_LOAD_RATE),
        n_transactions=n,
        injections=(
            ramp,
            ServiceSlowdown(at_s=onset, factor=AGING_FACTOR),
        ),
        degraded=((onset, math.inf),),
        horizon_s=h,
    )


def traffic_surge(horizon_s: float = 3600.0) -> FaultScenario:
    """A transient 1.6x burst (healthy), then real aging later.

    The burst lifts utilisation to ~0.9 for 10% of the horizon --
    elevated but stable response times that a burst-tolerant detector
    must ride out (the multi-bucket design intent of Section 5.1).
    """
    h = check_horizon(horizon_s)
    surge_at = 0.2 * h
    surge_len = 0.1 * h
    onset = 0.6 * h
    n = _transactions(HIGH_LOAD_RATE, h) + _transactions(
        HIGH_LOAD_RATE * 0.6, surge_len
    )
    return FaultScenario(
        name="traffic_surge",
        description=(
            "transient 1.6x arrival burst (healthy flash crowd), "
            "then a x3 slowdown"
        ),
        config=BASE_CONFIG,
        arrival=ArrivalSpec.poisson(HIGH_LOAD_RATE),
        n_transactions=n,
        injections=(
            TrafficSurge(at_s=surge_at, factor=1.6, duration_s=surge_len),
            ServiceSlowdown(at_s=onset, factor=AGING_FACTOR),
        ),
        degraded=((onset, math.inf),),
        horizon_s=h,
    )


def false_aging(horizon_s: float = 3600.0) -> FaultScenario:
    """Two 15 s stall blips (healthy), then real aging later.

    The acceptance scenario: the blips inflate in-flight response
    times enough to cross CLTA's 6.789 s threshold but are too brief
    for SRAA's bucket chain, so at paper-default parameters SRAA shows
    zero false alarms and zero missed detections while CLTA pays in
    false alarms.
    """
    h = check_horizon(horizon_s)
    onset = 0.6 * h
    return FaultScenario(
        name="false_aging",
        description=(
            "two transient 15 s hang blips (false aging), then a "
            "genuine x3 slowdown"
        ),
        config=BASE_CONFIG,
        arrival=ArrivalSpec.poisson(HIGH_LOAD_RATE),
        n_transactions=_transactions(HIGH_LOAD_RATE, h),
        injections=(
            NodeHang(at_s=0.2 * h, hang_s=15.0),
            NodeHang(at_s=0.35 * h, hang_s=15.0),
            ServiceSlowdown(at_s=onset, factor=AGING_FACTOR),
        ),
        degraded=((onset, math.inf),),
        horizon_s=h,
    )


def node_crash(horizon_s: float = 3600.0) -> FaultScenario:
    """An abrupt crash with a 2-minute restart (healthy), then aging.

    The crash wipes in-flight work and the policy's detection state;
    it is not a rejuvenation and must not be scored as a detection.
    """
    h = check_horizon(horizon_s)
    onset = 0.6 * h
    return FaultScenario(
        name="node_crash",
        description=(
            "node crash with 120 s restart downtime (not aging), "
            "then a x3 slowdown"
        ),
        config=BASE_CONFIG,
        arrival=ArrivalSpec.poisson(HIGH_LOAD_RATE),
        n_transactions=_transactions(HIGH_LOAD_RATE, h),
        injections=(
            NodeCrash(at_s=0.3 * h, restart_s=120.0),
            ServiceSlowdown(at_s=onset, factor=AGING_FACTOR),
        ),
        degraded=((onset, math.inf),),
        horizon_s=h,
    )


def heavy_tail(horizon_s: float = 3600.0) -> FaultScenario:
    """Aging as heavy-tailed contamination instead of a clean slowdown.

    From the onset, a quarter of all services gain a Pareto(1.5) tail
    of scale 20 s (~10 s of extra mean per transaction) -- degradation
    that arrives as sporadic very-slow transactions rather than a
    uniform slowdown.
    """
    h = check_horizon(horizon_s)
    onset = 0.55 * h
    return FaultScenario(
        name="heavy_tail",
        description=(
            "heavy-tailed service contamination (Pareto tail) from "
            "55% of the horizon on"
        ),
        config=BASE_CONFIG,
        arrival=ArrivalSpec.poisson(HIGH_LOAD_RATE),
        n_transactions=_transactions(HIGH_LOAD_RATE, h),
        injections=(
            HeavyTailContamination(
                at_s=onset, prob=0.25, alpha=1.5, scale_s=20.0
            ),
        ),
        degraded=((onset, math.inf),),
        horizon_s=h,
    )


def gc_thrash(horizon_s: float = 3600.0) -> FaultScenario:
    """Scripted GC thrash: correlated garbage growth fills the heap.

    Runs the paper's GC mechanism (60 s stop-the-world pauses) but with
    the per-transaction leak turned off: injected garbage at 12 MB/s is
    the only heap pressure, so the first pause lands ~250 s after the
    onset and repeats every ~250 s after -- the paper's own aging
    symptom, scripted.  Ground truth starts at the onset (the leak is
    present from then on), so measured detection latency includes the
    symptom's own incubation time.
    """
    h = check_horizon(horizon_s)
    onset = 0.5 * h
    config = replace(PAPER_CONFIG, alloc_mb=0.0)
    return FaultScenario(
        name="gc_thrash",
        description=(
            "correlated garbage injection at 12 MB/s driving repeated "
            "60 s GC pauses"
        ),
        config=config,
        arrival=ArrivalSpec.poisson(HIGH_LOAD_RATE),
        n_transactions=_transactions(HIGH_LOAD_RATE, h),
        injections=(
            AgingAcceleration(
                start_s=onset, rate_mb_s=12.0, interval_s=5.0
            ),
        ),
        degraded=((onset, math.inf),),
        horizon_s=h,
    )


#: Builder functions in presentation order.
_BUILDERS = (
    aging_onset,
    workload_shift,
    workload_ramp,
    traffic_surge,
    false_aging,
    node_crash,
    heavy_tail,
    gc_thrash,
)


def scenario_names() -> Tuple[str, ...]:
    """The built-in scenario names, in presentation order."""
    return tuple(builder.__name__ for builder in _BUILDERS)


def builtin_scenarios(
    horizon_s: float = 3600.0,
) -> Dict[str, FaultScenario]:
    """Every built-in scenario, laid out for the given horizon."""
    return {
        builder.__name__: builder(horizon_s) for builder in _BUILDERS
    }


def check_scenario_name(name: str) -> str:
    """``name`` if it is a built-in scenario; ValueError naming the zoo."""
    if name not in scenario_names():
        raise ValueError(
            f"unknown scenario {name!r}; available: "
            f"{', '.join(scenario_names())}"
        )
    return name


def get_scenario(name: str, horizon_s: float = 3600.0) -> FaultScenario:
    """One built-in scenario by name (raises on unknown names)."""
    index = scenario_names().index(check_scenario_name(name))
    return _BUILDERS[index](horizon_s)
