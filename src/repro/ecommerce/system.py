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

Steps 2-7 live in :class:`~repro.ecommerce.node.ProcessingNode`; this
class adds the arrival process, the decision layer (metric policy,
optional resource policy), accounting, optional telemetry, and the run
loop.

The same class is the companion deployment of [2]: ``n_nodes`` such
nodes behind a front-end balancer (:mod:`repro.cluster.balancer`), each
with its own policy watching its own response times, and a coordinator
(:mod:`repro.cluster.coordinator`) arbitrating triggers so restarts
roll through the cluster.  Every system holds one -- unbounded unless
told otherwise -- so every granted restart lands in its grant log.
The paper's node is the one-node cluster.
A system of exactly one node in total (``total_nodes == 1``) keeps the
Section-3 shape: its node draws service times from stream
``"service"`` and its ``request.*`` trace events carry source
``system``.  Larger systems -- fleet shards included -- give node ``i``
stream ``"service.i"`` and label request events ``cluster``, with the
node's global index on ``request.complete``.

Modelling decisions the paper leaves implicit are documented in
DESIGN.md section 5 and quantified by the ablation experiment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cluster.balancer import LoadBalancer, RoundRobin
from repro.cluster.coordinator import RollingCoordinator
from repro.cluster.metrics import NodeStats
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


def _is_policy(policy: object) -> bool:
    """True for a policy instance, False for a factory building one."""
    return hasattr(policy, "observe") and not isinstance(policy, type)


class ECommerceSystem:
    """The simulated e-commerce system: one node, or N behind a balancer.

    Parameters
    ----------
    config:
        System parameters; defaults to the paper's
        :data:`~repro.ecommerce.config.PAPER_CONFIG` values.  One
        ``SystemConfig`` applies to every node; a sequence of
        ``n_nodes`` configs builds a heterogeneous cluster (e.g. one
        node with a smaller heap that ages faster, paired with a
        :class:`~repro.cluster.balancer.WeightedRoundRobin`).
    arrivals:
        The aggregate arrival process hitting the front end (step 1).
    policy:
        The rejuvenation decision rule fed with every completed response
        time (step 8), or ``None`` to disable rejuvenation.  Either one
        policy instance (one node only) or a zero-argument factory,
        called once per node, returning a fresh policy (or ``None``).
    seed:
        Master seed for the arrival, balancer and service random streams.
    resource_policy:
        Optional proactive policy fed with ``(time, free heap)`` after
        every allocation -- the Castelli-style baseline.  One-node only.
    telemetry:
        Optional fixed-interval state probe.  One-node only.
    tracer:
        Optional :class:`repro.obs.tracer.Tracer`.  With ``spans`` on,
        the system and its nodes emit request-lifecycle and GC/
        rejuvenation events; with ``decisions`` on, a
        :class:`~repro.obs.listener.TracingDecisionListener` driven by
        the simulation clock is installed on every node's policy.  The
        buffered events are returned, encoded, on ``RunResult.trace``.
        ``None`` (the default) is the near-free fast path.
    faults:
        Optional fault scenario: either an object with an ``injections``
        attribute (e.g. :class:`repro.faults.scenario.FaultScenario`) or
        a plain sequence of injections.  Each injection's
        ``arm(system)`` is called at the start of every :meth:`run`,
        after the model has been reset, so injections schedule their
        simulator events against a clean clock and reach every node --
        or one node, via their ``node`` target -- through the fault
        surface.  The model never imports :mod:`repro.faults` -- the
        coupling is duck-typed.
    profiler:
        Optional :class:`repro.obs.live.DESProfiler`.  Installed on the
        simulator, it attributes every fired event's wall-clock to its
        kind; this class additionally brackets the policy's ``observe``
        calls under the ``policy.observe`` kind (a slice *within* the
        completion events' time, accounted separately so decision cost
        is visible).  ``None`` (the default) costs one check per event.
    n_nodes:
        Number of nodes behind the front end.
    balancer:
        Dispatching strategy; defaults to round-robin.
    coordinator:
        Trigger arbitration; defaults to an unbounded
        :class:`~repro.cluster.coordinator.RollingCoordinator`
        (independent nodes) whose grant log still records every
        restart under its global node index.
    arrival_scale:
        Every inter-arrival draw is divided by this factor.  The
        declarative specs use it to keep scenario arrival processes in
        *per-node* units: a cluster spec scales the baseline process
        (and any process a fault injector swaps in later) by its node
        count, so per-node offered load matches the single-node
        scenario.  Exact for Poisson processes (superposition).
    first_node_index:
        Global index of this system's first node.  Nodes are named
        ``node{first_node_index + i}`` and fault targeting uses global
        indices -- a fleet shard covering nodes 250..499 passes 250.
    total_nodes:
        Global fleet size (defaults to ``first_node_index + n_nodes``).
        A global node index outside this range is a targeting error;
        one outside *this* system's slice is simply not local
        (``fault_nodes`` returns nothing).

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
    >>> cluster = ECommerceSystem(
    ...     PAPER_CONFIG,
    ...     PoissonArrivals(rate=4 * 1.6),
    ...     policy=lambda: SRAA(PAPER_SLO, 2, 5, 3),
    ...     seed=1,
    ...     n_nodes=4,
    ... )
    >>> result = cluster.run(4_000)
    >>> result.completed + result.lost, len(result.nodes)
    (4000, 4)
    """

    def __init__(
        self,
        config: "SystemConfig | Sequence[SystemConfig]",
        arrivals: ArrivalProcess,
        policy: Optional[object] = None,
        seed: Optional[int] = None,
        resource_policy: Optional[ResourceExhaustionPolicy] = None,
        telemetry: Optional[Telemetry] = None,
        tracer: Optional[object] = None,
        faults: Optional[object] = None,
        profiler: Optional[object] = None,
        n_nodes: int = 1,
        balancer: Optional[LoadBalancer] = None,
        coordinator: Optional[RollingCoordinator] = None,
        arrival_scale: float = 1.0,
        first_node_index: int = 0,
        total_nodes: Optional[int] = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        if arrival_scale <= 0:
            raise ValueError("arrival scale must be positive")
        if first_node_index < 0:
            raise ValueError("first node index must be non-negative")
        if isinstance(config, SystemConfig):
            node_configs = [config] * n_nodes
        else:
            node_configs = list(config)
            if len(node_configs) != n_nodes:
                raise ValueError(
                    f"got {len(node_configs)} configs for {n_nodes} nodes"
                )
        self._total_nodes = (
            int(total_nodes)
            if total_nodes is not None
            else first_node_index + n_nodes
        )
        single = self._total_nodes == 1
        if not single and (
            resource_policy is not None or telemetry is not None
        ):
            raise ValueError(
                "resource policies and telemetry probes are single-node "
                f"instrumentation; a {self._total_nodes}-node system does "
                "not support them"
            )
        if policy is None or _is_policy(policy):
            if n_nodes > 1 and policy is not None:
                raise ValueError(
                    "one policy instance cannot watch several nodes; "
                    "pass a zero-argument factory"
                )
            policies = [policy] * n_nodes
        else:
            policies = [policy() for _ in range(n_nodes)]
        self.config = config
        self._base_arrivals = arrivals
        self.arrival_scale = float(arrival_scale)
        self.first_node_index = int(first_node_index)
        self.balancer = balancer if balancer is not None else RoundRobin()
        self.coordinator = (
            coordinator
            if coordinator is not None
            else RollingCoordinator(first_node=first_node_index)
        )
        self.faults = faults
        self.policies: List[Optional[RejuvenationPolicy]] = policies
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
        self._source = "system" if single else "cluster"
        self.streams = RandomStreams(seed)
        # The two streams drawn once per event serve their exponentials
        # from pre-drawn blocks (bit-identical to scalar draws).
        self._arrival_rng = self.streams.block_drawn("arrivals")
        self._use_arrivals(arrivals)
        self._balancer_rng = self.streams["lb"] if n_nodes > 1 else None
        self.sim = Simulator(tracer=tracer, profiler=profiler)
        self.nodes: List[ProcessingNode] = [
            ProcessingNode(
                node_configs[i],
                self.sim,
                self.streams.block_drawn(
                    "service" if single else f"service.{i}"
                ),
                on_complete=self._on_complete,
                on_loss=self._on_loss,
                on_allocation=(
                    self._on_allocation if resource_policy is not None else None
                ),
                name=f"node{self.first_node_index + i}",
                tracer=tracer,
            )
            for i in range(n_nodes)
        ]
        for i, node_policy in enumerate(policies):
            # A drawing policy given no generator draws from this run.
            if getattr(node_policy, "rng", False) is None:
                node_policy.rng = self.streams[
                    "policy" if single else f"policy.{i}"
                ]
        if tracer is not None and tracer.decisions:
            # Deferred import: repro.obs is optional machinery on top of
            # the simulator, not a dependency of the model itself.
            from repro.obs.listener import TracingDecisionListener

            for node_policy in policies:
                if node_policy is not None:
                    node_policy.set_listener(
                        TracingDecisionListener(
                            tracer, clock=lambda: self.sim.now
                        )
                    )
        self._all_nodes = list(range(n_nodes))
        self._reset_accounting()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _reset_accounting(self) -> None:
        self._down_until = [0.0] * len(self.nodes)
        #: Latest down_until over all nodes: while the clock is past
        #: it, no node is down and every node is eligible.
        self._latest_down_until = 0.0
        self._arrivals_generated = 0
        self._completed = 0
        self._lost = 0
        self._refused = 0
        self._warmup = 0
        self._measured_lost = 0
        self._measured_moments = OnlineMoments()
        self._collected: Optional[List[float]] = None
        self._n_target = 0

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def node(self) -> ProcessingNode:
        """The first node -- *the* node of a one-node system."""
        return self.nodes[0]

    @property
    def gc_count(self) -> int:
        """Full garbage collections so far, over all nodes."""
        return sum(node.gc_count for node in self.nodes)

    @property
    def rejuvenations(self) -> int:
        """Rejuvenations carried out so far, over all nodes."""
        return sum(node.rejuvenations for node in self.nodes)

    @property
    def rejuvenation_times(self) -> List[float]:
        """When each rejuvenation was granted, read off the grant log."""
        return [time for time, _, _ in self.coordinator.grants]

    @property
    def crashes(self) -> int:
        """Injected node crashes so far, over all nodes."""
        return sum(node.crashes for node in self.nodes)

    @property
    def measured_moments(self) -> OnlineMoments:
        """Running moments of measured response times (for merging)."""
        return self._measured_moments

    @property
    def measured_lost(self) -> int:
        """Lost transactions after the warm-up cut (for merging)."""
        return self._measured_lost

    def _use_arrivals(self, process: ArrivalProcess) -> None:
        """Make ``process`` the arrival source and bind ``_next_gap``,
        the zero-argument draw of the next (scaled) inter-arrival gap."""
        self.arrivals = process
        sample = process.sampler(self._arrival_rng)
        scale = self.arrival_scale
        self._next_gap = sample if scale == 1.0 else lambda: sample() / scale

    def _mark_down(self, node_index: int, until: float) -> None:
        if until > self._down_until[node_index]:
            self._down_until[node_index] = until
        if until > self._latest_down_until:
            self._latest_down_until = until

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self) -> None:
        now = self.sim.now
        index = self._arrivals_generated
        self._arrivals_generated = generated = index + 1
        # Schedule the next arrival before admitting this one.
        if generated < self._n_target:
            self.sim.schedule(
                self._next_gap(), self._on_arrival, kind="arrival"
            )
        tracer = self._life_tracer
        if tracer is not None:
            tracer.emit(now, "request.arrival", self._source, index=index)
        nodes = self.nodes
        if now < self._latest_down_until:
            eligible = [
                i for i, until in enumerate(self._down_until) if until <= now
            ]
            if not eligible:
                # Every node in downtime: the request is refused.
                self._refused += 1
                self._count_loss(index, reason="downtime")
                return
        elif len(nodes) == 1:
            nodes[0].submit(Job(now, index))
            return
        else:
            # Nobody down: every node is eligible, no list to build.
            eligible = self._all_nodes
        target = self.balancer.select(nodes, eligible, self._balancer_rng)
        nodes[target].submit(Job(now, index, target))

    def _on_complete(self, job: Job, response_time: float) -> None:
        self._completed += 1
        if job.index >= self._warmup:
            self._measured_moments.push(response_time)
            if self._collected is not None:
                self._collected.append(response_time)
        tracer = self._span_tracer
        if tracer is not None:
            if self._source == "system":
                tracer.emit(
                    self.sim.now,
                    "request.complete",
                    "system",
                    index=job.index,
                    response_time=response_time,
                )
            else:
                tracer.emit(
                    self.sim.now,
                    "request.complete",
                    "cluster",
                    index=job.index,
                    node=self.first_node_index + job.node,
                    response_time=response_time,
                )
        # Step 8: let the node's policy decide.
        policy = self.policies[job.node]
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
            self._request_rejuvenation(job.node)

    def _on_loss(self, job: Job) -> None:
        self._count_loss(job.index, reason="rejuvenation")

    def _on_allocation(self, time_s: float, free_heap_mb: float) -> None:
        assert self.resource_policy is not None
        if self.resource_policy.observe_resource(time_s, free_heap_mb):
            self._request_rejuvenation(0)

    def _request_rejuvenation(self, node_index: int) -> None:
        """Capacity restoration, if the coordinator grants it."""
        now = self.sim.now
        node = self.nodes[node_index]
        downtime = node.config.rejuvenation_downtime_s
        if not self.coordinator.request(node_index, now, downtime):
            return
        node.rejuvenate()
        if downtime > 0.0:
            self._mark_down(node_index, now + downtime)

    def _count_loss(self, index: int, reason: str) -> None:
        self._lost += 1
        if index >= self._warmup:
            self._measured_lost += 1
        tracer = self._span_tracer
        if tracer is not None:
            tracer.emit(
                self.sim.now,
                "request.loss",
                self._source,
                index=index,
                reason=reason,
            )

    # ------------------------------------------------------------------
    # Fault-injection surface (see repro.systems protocol)
    # ------------------------------------------------------------------
    def set_arrivals(self, process: ArrivalProcess) -> ArrivalProcess:
        """Swap the arrival process mid-run; returns the previous one.

        The swap affects the *next* inter-arrival draw; the arrival
        already scheduled keeps its time.  Workload-shift and
        traffic-surge injectors use this to step/scale the rate without
        disturbing the arrival random stream's draw order.  The
        incoming process is in per-node units -- ``arrival_scale``
        keeps applying, so an injector written for the single-node
        scenarios shifts every node's offered load alike.
        """
        previous = self.arrivals
        self._use_arrivals(process)
        return previous

    def _local_indices(self, node: Optional[int]) -> List[int]:
        """Local indices targeted by a global node index (or all)."""
        if node is None:
            return self._all_nodes
        if not 0 <= node < self._total_nodes:
            raise ValueError(
                f"node index {node} out of range for a "
                f"{self._total_nodes}-node system"
            )
        local = node - self.first_node_index
        if 0 <= local < len(self.nodes):
            return [local]
        return []

    def fault_nodes(self, node: Optional[int] = None) -> List[ProcessingNode]:
        """The processing nodes a fault should touch.

        ``None`` targets every node; a global index targets one node
        -- possibly none, when that index lives in another shard of a
        fleet.  Out-of-range indices raise.
        """
        return [self.nodes[i] for i in self._local_indices(node)]

    def inject_crash(
        self, restart_s: float = 0.0, node: Optional[int] = None
    ) -> int:
        """Crash every targeted node; returns transactions lost.

        All in-flight work on a crashed node dies.  Requests arriving
        during its ``restart_s`` restart window go to other nodes (the
        balancer skips down nodes); with *every* node down they are
        refused (counted lost, reason ``downtime``), reusing the
        rejuvenation-downtime gate.  The crash also wipes whatever
        response-time history the node's policy had accumulated --
        after a process restart a monitor starts from scratch -- so the
        policy (and any resource policy) is reset.  Crashes are *not*
        counted as rejuvenations and never appear in
        ``rejuvenation_times``.
        """
        if restart_s < 0:
            raise ValueError("restart time must be non-negative")
        now = self.sim.now
        lost = 0
        for i in self._local_indices(node):
            lost += self.nodes[i].crash()
            if restart_s > 0.0:
                self._mark_down(i, now + restart_s)
            policy = self.policies[i]
            if policy is not None:
                policy.reset()
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
        self._base_arrivals.reset()
        self._use_arrivals(self._base_arrivals)
        self.balancer.reset()
        self.coordinator.reset()
        if self.tracer is not None:
            self.tracer.clear()
        if self.profiler is not None:
            self.profiler.clear()
        for node, policy in zip(self.nodes, self.policies):
            node.reset()
            if policy is not None:
                policy.reset()
        if self.resource_policy is not None:
            self.resource_policy.reset()
        self._reset_accounting()
        self._warmup = warmup
        self._n_target = n_transactions
        if collect_response_times:
            self._collected = []
        if self.faults is not None:
            injections = getattr(self.faults, "injections", self.faults)
            for injection in injections:
                injection.arm(self)
        self.sim.schedule(self._next_gap(), self._on_arrival, kind="arrival")
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
        moments = self._measured_moments
        return RunResult(
            arrivals=self._arrivals_generated,
            completed=self._completed,
            lost=self._lost,
            avg_response_time=moments.mean if moments.count else 0.0,
            rt_std=moments.std,
            max_response_time=(moments.maximum if moments.count else 0.0),
            loss_fraction=self._measured_lost / (n_transactions - warmup),
            gc_count=self.gc_count,
            rejuvenations=self.rejuvenations,
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
            refused=self._refused,
            nodes=tuple(NodeStats.of(node) for node in self.nodes),
        )
