"""One processing node: CPUs, heap, queue -- the Section-3 mechanics.

``ProcessingNode`` owns steps 2-7 of the paper's model for a single
host: FCFS queueing for a CPU pool, exponential service with the kernel
overhead rule, per-transaction heap allocation with full-GC stalls, and
capacity restoration.  It is deliberately ignorant of *arrivals* and of
*decision making*: :class:`~repro.ecommerce.system.ECommerceSystem`
drives one or more nodes through :meth:`submit` and the completion/loss
callbacks.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, Optional, Tuple

import numpy as np

from repro.des.engine import Simulator
from repro.des.events import Event
from repro.ecommerce.config import SystemConfig
from repro.ecommerce.service_times import make_service_sampler


class Job:
    """One transaction travelling through a node.

    ``node`` is the owner's index of the node the job was routed to.
    """

    __slots__ = ("arrival_time", "index", "node", "completion_event")

    def __init__(self, arrival_time: float, index: int, node: int = 0) -> None:
        self.arrival_time = arrival_time
        self.index = index
        self.node = node
        self.completion_event: Optional[Event] = None


class ProcessingNode:
    """The CPU/heap/queue mechanics of one host.

    Parameters
    ----------
    config:
        System parameters (CPU count, heap, GC, overhead).
    sim:
        The simulator whose clock and event set this node lives in --
        shared across nodes in a cluster.
    service_rng:
        Random stream for service-time draws (one per node keeps
        common-random-number discipline across scenarios).
    on_complete:
        Called with ``(job, response_time)`` when a transaction
        finishes.  The owner records the metric, feeds policies, and may
        call :meth:`rejuvenate` from inside the callback.
    on_loss:
        Called with ``(job)`` for every transaction killed by a
        rejuvenation.
    on_allocation:
        Optional; called with ``(time, free_heap_mb)`` after each heap
        allocation -- the resource-policy hook.
    name:
        Label used in repr/diagnostics.
    tracer:
        Optional :class:`repro.obs.tracer.Tracer`; when its ``spans``
        flag is on, the node emits request-lifecycle and GC/
        rejuvenation events.  ``None`` (the default) keeps the hot
        paths at one attribute check each.
    """

    def __init__(
        self,
        config: SystemConfig,
        sim: Simulator,
        service_rng: np.random.Generator,
        on_complete: Callable[[Job, float], None],
        on_loss: Callable[[Job], None],
        on_allocation: Optional[Callable[[float, float], None]] = None,
        name: str = "node0",
        tracer: Optional[object] = None,
    ) -> None:
        self.config = config
        self.sim = sim
        self.service_rng = service_rng
        self._tracer = tracer if tracer is not None and tracer.spans else None
        # Per-request microscope events (enqueue, service start) go
        # only to sinks that want lifecycle detail; see LIFECYCLE_TYPES.
        self._life_tracer = (
            self._tracer
            if self._tracer is not None and getattr(tracer, "lifecycle", True)
            else None
        )
        self._draw_service = make_service_sampler(
            config.service_distribution,
            mean=1.0 / config.service_rate,
            cv=config.service_cv,
            rng=service_rng,
        )
        self.on_complete = on_complete
        self.on_loss = on_loss
        self.on_allocation = on_allocation
        self.name = name
        self.reset()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return to a pristine node (used between runs)."""
        self.queue: Deque[Job] = deque()
        # Insertion-ordered on purpose: rejuvenation and GC iterate over
        # the executing jobs, and a set's address-dependent order would
        # make loss/reschedule order differ between worker processes.
        self.in_service: Dict[Job, None] = {}
        self.free_cpus = self.config.cpus
        self.in_system = 0
        self.live_mb = 0.0
        self.garbage_mb = 0.0
        self.gc_end = 0.0
        self.gc_count = 0
        self.rejuvenations = 0
        self.crashes = 0
        #: Traffic counters: jobs submitted and killed here, and the
        #: sum of the completed jobs' response times.
        self.dispatched = 0
        self.lost = 0
        self.rt_sum = 0.0
        #: Multiplier applied to every service draw (fault injection:
        #: a sustained slowdown models genuine software aging).
        self.service_scale = 1.0
        #: Heavy-tailed contamination ``(prob, pareto_alpha, scale_s)``
        #: or ``None``; when set, each service start adds a Pareto-
        #: distributed delay with probability ``prob``.
        self.contamination: Optional[Tuple[float, float, float]] = None
        # The frozen config's per-transaction constants, read once: the
        # heap leak per transaction (0.0 when nothing leaks) and the
        # kernel-overhead rule (an infinite threshold when disabled).
        cfg = self.config
        self._leak_mb = (
            cfg.alloc_mb if cfg.enable_gc and cfg.alloc_mb > 0.0 else 0.0
        )
        self._overhead_threshold = (
            cfg.overhead_threshold if cfg.enable_overhead else math.inf
        )
        self._overhead_factor = cfg.overhead_factor

    @property
    def free_heap_mb(self) -> float:
        """Heap neither held live nor awaiting collection."""
        return self.config.heap_mb - self.live_mb - self.garbage_mb

    @property
    def completed(self) -> int:
        """Transactions that finished on this node."""
        return self.dispatched - self.lost - self.in_system

    @property
    def queue_length(self) -> int:
        """Transactions waiting for a CPU."""
        return len(self.queue)

    # ------------------------------------------------------------------
    # Work intake
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Accept one transaction (step 2: queue for a CPU).

        With a CPU free and nobody waiting, the job would leave the
        queue the moment it joined it, so it starts service at once --
        unless a lifecycle tracer wants to see the ``request.enqueue``.
        """
        self.dispatched += 1
        self.in_system += 1
        tracer = self._life_tracer
        if tracer is None and self.free_cpus > 0 and not self.queue:
            self._start_service(job)
            return
        self.queue.append(job)
        if tracer is not None:
            tracer.emit(
                self.sim.now,
                "request.enqueue",
                self.name,
                index=job.index,
                queue_length=len(self.queue),
                in_system=self.in_system,
            )
        self.dispatch()

    def dispatch(self) -> None:
        """Start service on free CPUs while the queue is non-empty."""
        while self.free_cpus > 0 and self.queue:
            self._start_service(self.queue.popleft())

    def _start_service(self, job: Job) -> None:
        now = self.sim.now
        self.free_cpus -= 1
        self.in_service[job] = None
        # Step 3: processing time (exponential in the paper).
        service = self._draw_service()
        # Fault-injection surface: sustained slowdown and heavy-tailed
        # contamination (no extra draws when no fault is active).
        if self.service_scale != 1.0:
            service *= self.service_scale
        contamination = self.contamination
        if contamination is not None:
            prob, alpha, scale_s = contamination
            if self.service_rng.random() < prob:
                service += scale_s * float(self.service_rng.pareto(alpha))
        # Step 4: kernel overhead above the concurrency threshold.
        if self.in_system > self._overhead_threshold:
            service *= self._overhead_factor
        # Steps 5-6: allocation, possibly forcing a full GC first.
        cfg = self.config
        leak_mb = self._leak_mb
        if leak_mb:
            # The free_heap_mb property, inlined: a frame per transaction.
            free_mb = cfg.heap_mb - self.live_mb - self.garbage_mb
            if free_mb < cfg.gc_threshold_mb:
                self._run_gc()
            self.live_mb += leak_mb
        completion_time = now + service
        # A thread starting mid-GC stalls until the GC ends (only when
        # the stop-the-world variant is configured; the paper's default
        # delays running threads only).
        if cfg.gc_freezes_new_threads and now < self.gc_end:
            completion_time += self.gc_end - now
        job.completion_event = self.sim.schedule_at(
            completion_time, partial(self._on_completion, job), kind="done"
        )
        tracer = self._life_tracer
        if tracer is not None:
            tracer.emit(
                now,
                "request.service_start",
                self.name,
                index=job.index,
                wait_s=now - job.arrival_time,
                service_s=completion_time - now,
                free_heap_mb=self.free_heap_mb,
            )
        if leak_mb and self.on_allocation is not None:
            self.on_allocation(now, self.free_heap_mb)

    def _run_gc(self) -> None:
        """Full GC: reclaim garbage, stall every running thread."""
        cfg = self.config
        now = self.sim.now
        self.gc_count += 1
        if cfg.gc_pause_model == "proportional":
            # A collector whose pause tracks the amount reclaimed:
            # gc_pause_s is the cost of sweeping a completely full heap.
            pause = cfg.gc_pause_s * (self.garbage_mb / cfg.heap_mb)
        else:
            pause = cfg.gc_pause_s
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                now,
                "system.gc",
                self.name,
                pause_s=pause,
                reclaimed_mb=self.garbage_mb,
                stalled_threads=len(self.in_service),
                gc_count=self.gc_count,
            )
        self.garbage_mb = 0.0
        self.gc_end = now + pause
        if pause <= 0.0:
            return
        self._delay_in_service(pause)

    def _delay_in_service(self, pause_s: float) -> int:
        """Push every in-service completion ``pause_s`` into the future."""
        delayed = 0
        for running in self.in_service:
            event = running.completion_event
            if event is None:  # pragma: no cover - defensive
                continue
            self.sim.cancel(event)
            running.completion_event = self.sim.schedule_at(
                event.time + pause_s,
                partial(self._on_completion, running),
                kind="done",
            )
            delayed += 1
        return delayed

    def _on_completion(self, job: Job) -> None:
        # Break the job -> event -> callback -> job reference cycle so
        # the subgraph is freed by refcounting the moment the job
        # leaves; left in place, every completed transaction becomes
        # cyclic garbage only the tracing collector can reclaim, and
        # the collector passes it forces dominate at scale.
        job.completion_event = None
        self.in_service.pop(job, None)
        self.free_cpus += 1
        self.in_system -= 1
        leak_mb = self._leak_mb
        if leak_mb:
            # The allocation leaks: reclaimed only by GC/rejuvenation.
            self.live_mb -= leak_mb
            self.garbage_mb += leak_mb
        response_time = self.sim.now - job.arrival_time
        self.rt_sum += response_time
        # Step 7-8: hand the measurement to the owner, which may decide
        # to rejuvenate this node from inside the callback.
        self.on_complete(job, response_time)
        if self.queue:
            self.dispatch()

    # ------------------------------------------------------------------
    # Capacity restoration
    # ------------------------------------------------------------------
    def rejuvenate(self) -> int:
        """Kill executing work, release resources; return jobs lost.

        Honours ``config.rejuvenation_kills_queued`` for the queued
        transactions; surviving queued work re-enters service at once.
        """
        self.rejuvenations += 1
        in_service = len(self.in_service)
        lost = 0
        for job in self.in_service:
            if job.completion_event is not None:
                self.sim.cancel(job.completion_event)
                job.completion_event = None  # break the ref cycle
            self.on_loss(job)
            lost += 1
        self.in_system -= len(self.in_service)
        self.in_service.clear()
        if self.config.rejuvenation_kills_queued:
            for job in self.queue:
                self.on_loss(job)
                lost += 1
            self.in_system -= len(self.queue)
            self.queue.clear()
        self.lost += lost
        self.free_cpus = self.config.cpus
        self.live_mb = 0.0
        self.garbage_mb = 0.0
        self.gc_end = self.sim.now  # an in-progress GC dies with the JVM
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                self.sim.now,
                "system.rejuvenation",
                self.name,
                lost=lost,
                in_service=in_service,
                rejuvenations=self.rejuvenations,
            )
        self.dispatch()
        return lost

    # ------------------------------------------------------------------
    # Fault-injection surface
    # ------------------------------------------------------------------
    def stall(self, pause_s: float) -> int:
        """Transient GC-like stall: delay every running thread.

        Models a "false aging" blip (a lock convoy, a paging storm): the
        in-service completions are pushed ``pause_s`` into the future,
        exactly like a full GC, but nothing is reclaimed and no GC is
        counted.  Returns the number of threads stalled.  With the
        ``gc_freezes_new_threads`` ablation enabled, threads starting
        mid-stall are frozen too (the stall extends ``gc_end``).
        """
        if pause_s < 0:
            raise ValueError("stall duration must be non-negative")
        if pause_s == 0.0:
            return 0
        self.gc_end = max(self.gc_end, self.sim.now + pause_s)
        return self._delay_in_service(pause_s)

    def inject_garbage(self, mb: float) -> None:
        """Leak ``mb`` of garbage into the heap (aging acceleration).

        Unlike the per-transaction leak of step 5, injected garbage
        forces the full-GC check immediately, so the injector drives GC
        pressure even in configurations where ``alloc_mb`` is zero.
        """
        if mb < 0:
            raise ValueError("injected garbage must be non-negative")
        self.garbage_mb += mb
        if (
            self.config.enable_gc
            and self.free_heap_mb < self.config.gc_threshold_mb
        ):
            self._run_gc()

    def erode(self, floor: int) -> None:
        """Disable one CPU unless capacity is already at ``floor``.

        The capacity erosion of ref. [3]: leaked resources claim worker
        capacity one unit at a time.  Capacity is ``free_cpus`` plus the
        executing threads; with every CPU busy ``free_cpus`` goes
        negative, so the CPU is taken as it frees up and no work is
        killed.  :meth:`rejuvenate` restores full capacity.
        """
        if self.free_cpus + len(self.in_service) > floor:
            self.free_cpus -= 1

    def crash(self) -> int:
        """Abrupt node failure: every transaction in the node dies.

        Unlike :meth:`rejuvenate`, a crash is not a policy action -- it
        is not counted as a rejuvenation, and it always empties the
        queue (the process is gone, front-end tier included).  Resources
        come back released; the owner decides the restart downtime.
        Returns the number of transactions lost.
        """
        self.crashes += 1
        lost = 0
        for job in self.in_service:
            if job.completion_event is not None:
                self.sim.cancel(job.completion_event)
                job.completion_event = None  # break the ref cycle
            self.on_loss(job)
            lost += 1
        self.in_system -= len(self.in_service)
        self.in_service.clear()
        for job in self.queue:
            self.on_loss(job)
            lost += 1
        self.in_system -= len(self.queue)
        self.queue.clear()
        self.lost += lost
        self.free_cpus = self.config.cpus
        self.live_mb = 0.0
        self.garbage_mb = 0.0
        self.gc_end = self.sim.now
        return lost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessingNode({self.name}: in_system={self.in_system}, "
            f"free_cpus={self.free_cpus})"
        )
