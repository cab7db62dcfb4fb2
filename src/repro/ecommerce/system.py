"""The Section-3 simulation model of the e-commerce system.

Implements the eight numbered steps of the paper's model on top of the
:mod:`repro.des` kernel:

1. Poisson (or pluggable) thread arrivals.
2. FCFS queueing for a CPU.
3. Exponential CPU processing time (rate ``mu = 0.2``/s).
4. Kernel overhead: processing time doubles when more than 50 threads
   are active.
5. 10 MB heap allocation when a CPU is obtained.
6. Full garbage collection when free heap drops below 100 MB: every
   running thread is delayed by 60 s and the leaked (garbage) memory is
   reclaimed.
7. Response time = waiting time + processing time, computed at
   completion.
8. A rejuvenation policy observes every response time; on a trigger all
   threads in execution are terminated (their transactions are lost --
   the paper's rejuvenation cost) and all CPU and memory resources are
   released.

Steps 2-7 live in :class:`~repro.ecommerce.node.ProcessingNode` (shared
with the cluster deployment of :mod:`repro.cluster`); this class adds
the arrival process, the decision layer (metric policy, optional
resource policy), accounting, optional telemetry, and the run loop.
Modelling decisions the paper leaves implicit are documented in
DESIGN.md section 5 and quantified by the ablation experiment.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.base import RejuvenationPolicy
from repro.core.proactive import ResourceExhaustionPolicy
from repro.des.engine import Simulator
from repro.des.random_streams import RandomStreams
from repro.ecommerce.config import SystemConfig
from repro.ecommerce.metrics import RunResult
from repro.ecommerce.node import Job, ProcessingNode
from repro.ecommerce.telemetry import Telemetry, TelemetrySample
from repro.ecommerce.workload import ArrivalProcess
from repro.stats.running import OnlineMoments


class ECommerceSystem:
    """The simulated e-commerce system (single host).

    Parameters
    ----------
    config:
        System parameters; defaults to the paper's
        :data:`~repro.ecommerce.config.PAPER_CONFIG` values.
    arrivals:
        The arrival process (step 1).
    policy:
        The rejuvenation decision rule fed with every completed response
        time (step 8), or ``None`` to disable rejuvenation.
    seed:
        Master seed for the arrival and service random streams.
    resource_policy:
        Optional proactive policy fed with ``(time, free heap)`` after
        every allocation -- the Castelli-style baseline.
    telemetry:
        Optional fixed-interval state probe.
    tracer:
        Optional :class:`repro.obs.tracer.Tracer`.  With ``spans`` on,
        the system and its node emit request-lifecycle and GC/
        rejuvenation events; with ``decisions`` on, a
        :class:`~repro.obs.listener.TracingDecisionListener` driven by
        the simulation clock is installed on the policy.  The buffered
        events are returned, encoded, on ``RunResult.trace``.  ``None`` (the
        default) is the near-free fast path.
    faults:
        Optional fault scenario: either an object with an ``injections``
        attribute (e.g. :class:`repro.faults.scenario.FaultScenario`) or
        a plain sequence of injections.  Each injection's
        ``arm(system)`` is called at the start of every :meth:`run`,
        after the model has been reset, so injections schedule their
        simulator events against a clean clock.  The model never imports
        :mod:`repro.faults` -- the coupling is duck-typed.
    profiler:
        Optional :class:`repro.obs.live.DESProfiler`.  Installed on the
        simulator, it attributes every fired event's wall-clock to its
        kind; this class additionally brackets the policy's ``observe``
        calls under the ``policy.observe`` kind (a slice *within* the
        completion events' time, accounted separately so decision cost
        is visible).  ``None`` (the default) costs one check per event.

    Examples
    --------
    >>> from repro.core import SRAA, PAPER_SLO
    >>> from repro.ecommerce.config import PAPER_CONFIG
    >>> from repro.ecommerce.workload import PoissonArrivals
    >>> system = ECommerceSystem(
    ...     PAPER_CONFIG,
    ...     PoissonArrivals(rate=1.6),
    ...     policy=SRAA(PAPER_SLO, sample_size=2, n_buckets=5, depth=3),
    ...     seed=7,
    ... )
    >>> result = system.run(n_transactions=2000)
    >>> result.completed + result.lost
    2000
    """

    def __init__(
        self,
        config: SystemConfig,
        arrivals: ArrivalProcess,
        policy: Optional[RejuvenationPolicy] = None,
        seed: Optional[int] = None,
        resource_policy: Optional[ResourceExhaustionPolicy] = None,
        telemetry: Optional[Telemetry] = None,
        tracer: Optional[object] = None,
        faults: Optional[object] = None,
        profiler: Optional[object] = None,
    ) -> None:
        self.config = config
        self.arrivals = arrivals
        self._base_arrivals = arrivals
        self.faults = faults
        self.policy = policy
        self.resource_policy = resource_policy
        self.telemetry = telemetry
        self.tracer = tracer
        self.profiler = profiler
        self._span_tracer = (
            tracer if tracer is not None and tracer.spans else None
        )
        # The per-request microscope (request.arrival) is emitted only
        # for sinks that asked for lifecycle events -- always-on
        # telemetry declines them, and skipping the emit here spares
        # its call-site cost on every transaction.
        self._life_tracer = (
            self._span_tracer
            if self._span_tracer is not None
            and getattr(tracer, "lifecycle", True)
            else None
        )
        self.streams = RandomStreams(seed)
        self.sim = Simulator(tracer=tracer, profiler=profiler)
        self.node = ProcessingNode(
            config,
            self.sim,
            self.streams["service"],
            on_complete=self._on_complete,
            on_loss=self._on_loss,
            on_allocation=(
                self._on_allocation if resource_policy is not None else None
            ),
            tracer=tracer,
        )
        if tracer is not None and tracer.decisions and policy is not None:
            # Deferred import: repro.obs is optional machinery on top of
            # the simulator, not a dependency of the model itself.
            from repro.obs.listener import TracingDecisionListener

            policy.set_listener(
                TracingDecisionListener(tracer, clock=lambda: self.sim.now)
            )
        self._reset_accounting()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _reset_accounting(self) -> None:
        self._down_until = 0.0
        self._arrivals_generated = 0
        self._completed = 0
        self._lost = 0
        self.rejuvenation_times: List[float] = []
        self._warmup = 0
        self._measured_lost = 0
        self._measured_moments = OnlineMoments()
        self._collected: Optional[List[float]] = None
        self._n_target = 0

    @property
    def free_heap_mb(self) -> float:
        """Heap not held live and not yet reclaimed garbage."""
        return self.node.free_heap_mb

    @property
    def active_threads(self) -> int:
        """Threads in the JVM: queued plus executing."""
        return self.node.in_system

    @property
    def gc_count(self) -> int:
        """Full garbage collections so far."""
        return self.node.gc_count

    @property
    def rejuvenations(self) -> int:
        """Rejuvenations carried out so far."""
        return self.node.rejuvenations

    @property
    def crashes(self) -> int:
        """Injected node crashes so far."""
        return self.node.crashes

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self) -> None:
        if self._arrivals_generated >= self._n_target:
            return
        gap = self.arrivals.interarrival(self.streams["arrivals"])
        self.sim.schedule(gap, self._on_arrival, kind="arrival")

    def _on_arrival(self) -> None:
        now = self.sim.now
        index = self._arrivals_generated
        self._arrivals_generated += 1
        self._schedule_next_arrival()
        tracer = self._life_tracer
        if tracer is not None:
            tracer.emit(now, "request.arrival", "system", index=index)
        if now < self._down_until:
            # Rejuvenation downtime: the request is refused outright.
            self._count_loss(index, reason="downtime")
            return
        self.node.submit(Job(now, index))

    def _on_complete(self, job: Job, response_time: float) -> None:
        self._completed += 1
        if job.index >= self._warmup:
            self._measured_moments.push(response_time)
            if self._collected is not None:
                self._collected.append(response_time)
        tracer = self._span_tracer
        if tracer is not None:
            tracer.emit(
                self.sim.now,
                "request.complete",
                "system",
                index=job.index,
                response_time=response_time,
            )
        # Step 8: let the policy decide.
        policy = self.policy
        if policy is None:
            return
        profiler = self.profiler
        if profiler is None:
            triggered = policy.observe(response_time)
        else:
            clock = profiler.clock
            started = clock()
            try:
                triggered = policy.observe(response_time)
            finally:
                profiler.account("policy.observe", clock() - started)
        if triggered:
            self._rejuvenate()

    def _on_loss(self, job: Job) -> None:
        self._count_loss(job.index, reason="rejuvenation")

    def _on_allocation(self, time_s: float, free_heap_mb: float) -> None:
        assert self.resource_policy is not None
        if self.resource_policy.observe_resource(time_s, free_heap_mb):
            self._rejuvenate()

    def _rejuvenate(self) -> None:
        """Capacity restoration: drop executing work, release resources."""
        now = self.sim.now
        self.rejuvenation_times.append(now)
        self.node.rejuvenate()
        if self.config.rejuvenation_downtime_s > 0.0:
            self._down_until = now + self.config.rejuvenation_downtime_s

    def _count_loss(self, index: int, reason: str = "rejuvenation") -> None:
        self._lost += 1
        if index >= self._warmup:
            self._measured_lost += 1
        tracer = self._span_tracer
        if tracer is not None:
            tracer.emit(
                self.sim.now, "request.loss", "system", index=index, reason=reason
            )

    # ------------------------------------------------------------------
    # Fault-injection surface (used by repro.faults injections)
    # ------------------------------------------------------------------
    def set_arrivals(self, process: ArrivalProcess) -> ArrivalProcess:
        """Swap the arrival process mid-run; returns the previous one.

        The swap affects the *next* inter-arrival draw; the arrival
        already scheduled keeps its time.  Workload-shift and
        traffic-surge injectors use this to step/scale the rate without
        disturbing the arrival random stream's draw order.
        """
        previous = self.arrivals
        self.arrivals = process
        return previous

    def fault_nodes(self, node: "Optional[int]" = None) -> list:
        """The processing nodes a fault should touch.

        The single-node system only answers for global node index 0
        (or ``None``, meaning "every node"); anything else is a
        targeting error -- the fault was written for a larger
        substrate.
        """
        if node is None or node == 0:
            return [self.node]
        raise ValueError(
            f"node index {node} out of range for a single-node system"
        )

    def inject_crash(
        self, restart_s: float = 0.0, node: "Optional[int]" = None
    ) -> int:
        """Crash the node: all in-flight work dies, then restart.

        Requests arriving during the ``restart_s`` restart window are
        refused (counted lost, reason ``downtime``), reusing the
        rejuvenation-downtime gate.  The crash also wipes whatever
        response-time history the policy had accumulated -- after a
        process restart a monitor starts from scratch -- so the policy
        (and any resource policy) is reset.  Crashes are *not* counted
        as rejuvenations and never appear in ``rejuvenation_times``.
        Returns the number of transactions lost in the crash itself.
        """
        if restart_s < 0:
            raise ValueError("restart time must be non-negative")
        self.fault_nodes(node)  # validate the target
        lost = self.node.crash()
        if restart_s > 0.0:
            self._down_until = max(
                self._down_until, self.sim.now + restart_s
            )
        if self.policy is not None:
            self.policy.reset()
        if self.resource_policy is not None:
            self.resource_policy.reset()
        return lost

    def emit_fault(self, kind: str, cleared: bool = False, **data) -> None:
        """Emit a ``fault.injected`` / ``fault.cleared`` trace event."""
        tracer = self._span_tracer
        if tracer is not None:
            tracer.emit(
                self.sim.now,
                "fault.cleared" if cleared else "fault.injected",
                "fault",
                kind=kind,
                **data,
            )

    def _probe_telemetry(self) -> None:
        """Record one snapshot and re-arm while the model is still live.

        The probe must not keep the run alive on its own: it re-arms
        only while other events (arrivals, completions) are pending.
        """
        assert self.telemetry is not None
        node = self.node
        self.telemetry.record(
            TelemetrySample(
                time_s=self.sim.now,
                free_heap_mb=node.free_heap_mb,
                live_mb=node.live_mb,
                garbage_mb=node.garbage_mb,
                active_threads=node.in_system,
                in_service=len(node.in_service),
                queue_length=node.queue_length,
                completed=self._completed,
                lost=self._lost,
                rejuvenations=node.rejuvenations,
                gc_count=node.gc_count,
            )
        )
        if self.sim.queue:
            self.sim.schedule(
                self.telemetry.interval_s, self._probe_telemetry, kind="probe"
            )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        n_transactions: int,
        warmup: int = 0,
        collect_response_times: bool = False,
    ) -> RunResult:
        """Generate ``n_transactions`` arrivals and run until all resolve.

        Parameters
        ----------
        n_transactions:
            Total arrivals to generate (the paper uses 100,000 per
            replication).
        warmup:
            Transactions (by arrival index) excluded from the reported
            statistics; they still flow through the system and the
            policy.
        collect_response_times:
            Keep the individual measured response times (in completion
            order) on the result -- needed by the autocorrelation study.
        """
        if n_transactions < 1:
            raise ValueError("need at least one transaction")
        if not 0 <= warmup < n_transactions:
            raise ValueError("warmup must lie in [0, n_transactions)")
        self.sim.reset()
        # Fault injectors may have swapped the arrival process in a
        # previous run; every run starts from the constructor's process.
        self.arrivals = self._base_arrivals
        self.arrivals.reset()
        if self.tracer is not None:
            self.tracer.clear()
        if self.profiler is not None:
            self.profiler.clear()
        if self.policy is not None:
            self.policy.reset()
        if self.resource_policy is not None:
            self.resource_policy.reset()
        self.node.reset()
        self._reset_accounting()
        self._warmup = warmup
        self._n_target = n_transactions
        if collect_response_times:
            self._collected = []
        if self.faults is not None:
            injections = getattr(self.faults, "injections", self.faults)
            for injection in injections:
                injection.arm(self)
        self._schedule_next_arrival()
        if self.telemetry is not None:
            self.telemetry.clear()
            self._probe_telemetry()
        self.sim.run()
        resolved = self._completed + self._lost
        if resolved != n_transactions:  # pragma: no cover - invariant
            raise AssertionError(
                f"simulation ended with {resolved} of {n_transactions} "
                "transactions resolved"
            )
        measured_total = n_transactions - warmup
        moments = self._measured_moments
        return RunResult(
            arrivals=self._arrivals_generated,
            completed=self._completed,
            lost=self._lost,
            avg_response_time=moments.mean if moments.count else 0.0,
            rt_std=moments.std,
            max_response_time=(moments.maximum if moments.count else 0.0),
            loss_fraction=self._measured_lost / measured_total,
            gc_count=self.node.gc_count,
            rejuvenations=self.node.rejuvenations,
            sim_duration_s=self.sim.now,
            response_times=(
                tuple(self._collected) if self._collected is not None else None
            ),
            trace=(
                self.tracer.payload() if self.tracer is not None else None
            ),
            telemetry=(
                tuple(self.telemetry.samples)
                if self.telemetry is not None
                else None
            ),
            rejuvenation_times=tuple(self.rejuvenation_times),
        )
