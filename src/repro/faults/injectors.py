"""Composable, picklable fault injections driven by the DES clock.

Each injection is a frozen dataclass of plain data -- times, rates,
factors -- so it crosses process boundaries inside a
:class:`~repro.exec.jobs.ReplicationJob`.  Nothing live is captured at
construction time: :meth:`FaultInjection.arm` is called by
:class:`~repro.ecommerce.system.ECommerceSystem` at the start of every
run, *after* the model has been reset, and only then are the simulator
events (closures over the system under test) scheduled.

Every injection announces itself through
``ECommerceSystem.emit_fault`` -- a ``fault.injected`` event when it
takes effect and a ``fault.cleared`` event when a transient one ends --
so a ``--trace`` run records the scripted adversary next to the
policy's decisions and ``repro explain`` can narrate both.

The catalogue (see ``docs/faults.md``):

=====================  ====================================================
injection              models
=====================  ====================================================
WorkloadShift          a step change of the arrival process (rate step or
                       MMPP regime flip) -- *not* aging
WorkloadRamp           a gradual drift of the arrival rate
TrafficSurge           a transient arrival-rate burst (flash crowd)
ServiceSlowdown        capacity erosion: every service time scaled by a
                       factor -- the campaign's canonical aging signal
HeavyTailContamination occasional very long services (Pareto tail)
NodeCrash              abrupt failure: all in-flight work lost, restart
                       downtime refuses arrivals
NodeHang               a transient full stall ("false aging" blip) that a
                       robust detector must NOT fire on
AgingAcceleration      correlated garbage growth at a fixed MB/s, driving
                       GC pressure independent of per-transaction leaks
=====================  ====================================================
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Optional, Type

from repro.ecommerce.spec import ArrivalSpec
from repro.ecommerce.workload import PoissonArrivals, ScaledArrivals
from repro.exec.jobs import build_arrival


class FaultInjection(abc.ABC):
    """One scripted fault: plain data plus an :meth:`arm` hook."""

    @abc.abstractmethod
    def arm(self, system: Any) -> None:
        """Schedule this injection's events on ``system.sim``.

        Called at the start of every run against a freshly reset
        system; implementations must not keep state of their own
        (frozen dataclasses), so the same scenario object can be armed
        on any number of replications.
        """

    def describe(self) -> str:
        """Human-readable one-liner (default: the dataclass repr)."""
        return repr(self)


def _check_time(name: str, value: float) -> None:
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class WorkloadShift(FaultInjection):
    """Step change of the arrival process at ``at_s``.

    ``arrival`` is an :class:`~repro.ecommerce.spec.ArrivalSpec` (or any
    object with a ``build()`` method): a *fresh* process is built when
    the shift fires, so replications never share arrival state.  A
    shift is a legitimate operating-point change, not aging -- the
    scenarios use it to check that detectors do not mistake one for the
    other (the workload-shift regime of Moura et al.).
    """

    at_s: float
    arrival: Any

    def __post_init__(self) -> None:
        _check_time("at_s", self.at_s)

    @classmethod
    def step(cls, at_s: float, rate: float) -> "WorkloadShift":
        """Step to homogeneous Poisson arrivals at ``rate``/s."""
        return cls(at_s=at_s, arrival=ArrivalSpec.poisson(rate))

    def arm(self, system: Any) -> None:
        def fire() -> None:
            process = build_arrival(self.arrival)
            process.reset()
            system.set_arrivals(process)
            system.emit_fault(
                "workload_shift", new_rate=process.mean_rate()
            )

        system.sim.schedule_at(self.at_s, fire, kind="fault")


@dataclass(frozen=True)
class WorkloadRamp(FaultInjection):
    """Linear drift of the Poisson arrival rate over ``[start_s, end_s]``.

    Realised as ``steps`` equal rate steps (piecewise-constant), which
    keeps the arrival stream's draw order well-defined.
    """

    start_s: float
    end_s: float
    from_rate: float
    to_rate: float
    steps: int = 10

    def __post_init__(self) -> None:
        _check_time("start_s", self.start_s)
        if self.end_s <= self.start_s:
            raise ValueError("end_s must be after start_s")
        if min(self.from_rate, self.to_rate) <= 0:
            raise ValueError("ramp rates must be positive")
        if self.steps < 1:
            raise ValueError("need at least one ramp step")

    def arm(self, system: Any) -> None:
        span = self.end_s - self.start_s
        delta = self.to_rate - self.from_rate

        def step_at(k: int) -> None:
            fraction = k / self.steps
            rate = self.from_rate + delta * fraction
            system.set_arrivals(PoissonArrivals(rate))
            if k == 1:
                system.emit_fault(
                    "workload_ramp",
                    from_rate=self.from_rate,
                    to_rate=self.to_rate,
                    duration_s=span,
                )
            if k == self.steps:
                system.emit_fault(
                    "workload_ramp", cleared=True, rate=self.to_rate
                )

        for k in range(1, self.steps + 1):
            at = self.start_s + span * k / self.steps
            system.sim.schedule_at(
                at, lambda k=k: step_at(k), kind="fault"
            )


@dataclass(frozen=True)
class TrafficSurge(FaultInjection):
    """Transient arrival burst: rate x ``factor`` for ``duration_s``.

    The live arrival process is wrapped in
    :class:`~repro.ecommerce.workload.ScaledArrivals` at surge start --
    preserving its internal state (MMPP phase, periodic clock) -- and
    the original process is restored when the surge ends.  A burst is
    load, not aging: burst-tolerant detectors (the multi-bucket design
    intent) should ride it out.
    """

    at_s: float
    factor: float
    duration_s: float

    def __post_init__(self) -> None:
        _check_time("at_s", self.at_s)
        if self.factor <= 0:
            raise ValueError("surge factor must be positive")
        if self.duration_s <= 0:
            raise ValueError("surge duration must be positive")

    def arm(self, system: Any) -> None:
        def start() -> None:
            inner = system.arrivals
            system.set_arrivals(ScaledArrivals(inner, self.factor))
            system.emit_fault(
                "surge", factor=self.factor, duration_s=self.duration_s
            )

            def stop() -> None:
                system.set_arrivals(inner)
                system.emit_fault("surge", cleared=True)

            system.sim.schedule(self.duration_s, stop, kind="fault")

        system.sim.schedule_at(self.at_s, start, kind="fault")


@dataclass(frozen=True)
class ServiceSlowdown(FaultInjection):
    """Capacity erosion: every service draw scaled by ``factor``.

    The canonical aging signal of the scenario zoo: a factor large
    enough to push the offered load past capacity makes response times
    grow without bound until a rejuvenation restores the node.
    Multiplicative, so overlapping slowdowns compose; ``duration_s``
    ``None`` means the slowdown persists to the end of the run (true
    aging is only cured by rejuvenation -- which in this model restores
    *capacity* but not the injected slowdown, modelling a fault the
    paper's policies can only keep suppressing, not remove).

    ``node`` targets one global node index on multi-node substrates
    (``None`` degrades every node alike).
    """

    at_s: float
    factor: float
    duration_s: Optional[float] = None
    node: Optional[int] = None

    def __post_init__(self) -> None:
        _check_time("at_s", self.at_s)
        if self.factor <= 0:
            raise ValueError("slowdown factor must be positive")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("slowdown duration must be positive")

    def arm(self, system: Any) -> None:
        def start() -> None:
            targets = system.fault_nodes(self.node)
            if not targets:
                return
            for target in targets:
                target.service_scale *= self.factor
            system.emit_fault("slowdown", factor=self.factor)
            if self.duration_s is not None:

                def stop() -> None:
                    for target in targets:
                        target.service_scale /= self.factor
                    system.emit_fault("slowdown", cleared=True)

                system.sim.schedule(self.duration_s, stop, kind="fault")

        system.sim.schedule_at(self.at_s, start, kind="fault")


@dataclass(frozen=True)
class HeavyTailContamination(FaultInjection):
    """Occasional very long services: a Pareto tail on top of the law.

    With probability ``prob`` a completed service draw gains
    ``scale_s * Pareto(alpha)`` extra seconds.  ``alpha <= 1`` gives an
    infinite-mean tail; the zoo uses ``alpha = 1.5`` (mean extra time
    ``prob * scale_s / (alpha - 1)`` per transaction).
    """

    at_s: float
    prob: float
    alpha: float
    scale_s: float
    duration_s: Optional[float] = None
    node: Optional[int] = None

    def __post_init__(self) -> None:
        _check_time("at_s", self.at_s)
        if not 0.0 < self.prob <= 1.0:
            raise ValueError("contamination probability must be in (0, 1]")
        if self.alpha <= 0:
            raise ValueError("Pareto alpha must be positive")
        if self.scale_s <= 0:
            raise ValueError("contamination scale must be positive")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("contamination duration must be positive")

    def arm(self, system: Any) -> None:
        def start() -> None:
            targets = system.fault_nodes(self.node)
            if not targets:
                return
            for target in targets:
                target.contamination = (self.prob, self.alpha, self.scale_s)
            system.emit_fault(
                "contamination",
                prob=self.prob,
                alpha=self.alpha,
                scale_s=self.scale_s,
            )
            if self.duration_s is not None:

                def stop() -> None:
                    for target in targets:
                        target.contamination = None
                    system.emit_fault("contamination", cleared=True)

                system.sim.schedule(self.duration_s, stop, kind="fault")

        system.sim.schedule_at(self.at_s, start, kind="fault")


@dataclass(frozen=True)
class NodeCrash(FaultInjection):
    """Abrupt node failure at ``at_s``, restarting after ``restart_s``.

    All in-flight transactions (executing *and* queued) are lost and
    arrivals during the restart window are refused.  Unlike a
    rejuvenation, a crash is not a policy trigger: it never appears in
    ``RunResult.rejuvenation_times``, and the policy's detection state
    is wiped (a restarted monitor starts from scratch).

    ``node`` crashes one global node index on multi-node substrates
    (``None`` crashes every node -- a correlated outage).
    """

    at_s: float
    restart_s: float = 0.0
    node: Optional[int] = None

    def __post_init__(self) -> None:
        _check_time("at_s", self.at_s)
        _check_time("restart_s", self.restart_s)

    def arm(self, system: Any) -> None:
        def fire() -> None:
            if not system.fault_nodes(self.node):
                return
            lost = system.inject_crash(self.restart_s, node=self.node)
            system.emit_fault(
                "crash", lost=lost, restart_s=self.restart_s
            )
            if self.restart_s > 0.0:
                system.sim.schedule(
                    self.restart_s,
                    lambda: system.emit_fault("crash", cleared=True),
                    kind="fault",
                )

        system.sim.schedule_at(self.at_s, fire, kind="fault")


@dataclass(frozen=True)
class NodeHang(FaultInjection):
    """Transient full stall of ``hang_s`` seconds -- a false-aging blip.

    Every executing thread is delayed exactly like a GC pause (a lock
    convoy, a paging storm), but nothing is leaked and nothing is
    reclaimed: the system is healthy before and after.  A robust
    detector must not rejuvenate on it; the false-alarm-rate column of
    the robustness score counts the detectors that do.
    """

    at_s: float
    hang_s: float
    node: Optional[int] = None

    def __post_init__(self) -> None:
        _check_time("at_s", self.at_s)
        if self.hang_s <= 0:
            raise ValueError("hang duration must be positive")

    def arm(self, system: Any) -> None:
        def fire() -> None:
            targets = system.fault_nodes(self.node)
            if not targets:
                return
            stalled = sum(
                target.stall(self.hang_s) for target in targets
            )
            system.emit_fault(
                "hang", hang_s=self.hang_s, stalled=stalled
            )
            system.sim.schedule(
                self.hang_s,
                lambda: system.emit_fault("hang", cleared=True),
                kind="fault",
            )

        system.sim.schedule_at(self.at_s, fire, kind="fault")


@dataclass(frozen=True)
class AgingAcceleration(FaultInjection):
    """Correlated garbage growth at ``rate_mb_s`` from ``start_s`` on.

    Injects ``rate_mb_s * interval_s`` MB of garbage every
    ``interval_s`` simulated seconds -- aging pressure decoupled from
    the per-transaction leak, so GC thrash can be scripted even with
    ``alloc_mb = 0``.  The tick re-arms only while other events are
    pending, so it never keeps a finished run alive.
    """

    start_s: float
    rate_mb_s: float
    interval_s: float = 10.0
    end_s: Optional[float] = None
    node: Optional[int] = None

    def __post_init__(self) -> None:
        _check_time("start_s", self.start_s)
        if self.rate_mb_s <= 0:
            raise ValueError("garbage rate must be positive")
        if self.interval_s <= 0:
            raise ValueError("injection interval must be positive")
        if self.end_s is not None and self.end_s <= self.start_s:
            raise ValueError("end_s must be after start_s")

    def arm(self, system: Any) -> None:
        def tick() -> None:
            if self.end_s is not None and system.sim.now >= self.end_s:
                system.emit_fault("aging", cleared=True)
                return
            for target in system.fault_nodes(self.node):
                target.inject_garbage(self.rate_mb_s * self.interval_s)
            if system.sim.queue:
                system.sim.schedule(self.interval_s, tick, kind="fault")

        def start() -> None:
            if not system.fault_nodes(self.node):
                return
            system.emit_fault(
                "aging", rate_mb_s=self.rate_mb_s, interval_s=self.interval_s
            )
            tick()

        system.sim.schedule_at(self.start_s, start, kind="fault")


#: Scenario-schema type name -> injection class (see docs/faults.md).
INJECTION_TYPES: Dict[str, Type[FaultInjection]] = {
    "workload_shift": WorkloadShift,
    "workload_ramp": WorkloadRamp,
    "surge": TrafficSurge,
    "slowdown": ServiceSlowdown,
    "contamination": HeavyTailContamination,
    "crash": NodeCrash,
    "hang": NodeHang,
    "aging": AgingAcceleration,
}

#: Injection class -> scenario-schema type name.
INJECTION_NAMES: Dict[Type[FaultInjection], str] = {
    cls: name for name, cls in INJECTION_TYPES.items()
}
