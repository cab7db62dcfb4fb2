"""Sharded fleet substrate: thousands of nodes over ``repro.exec``.

A :class:`FleetSpec` describes a fleet of ``n_nodes`` Section-3 nodes
split into ``shards`` balanced clusters.  Each shard is an independent
:class:`~repro.ecommerce.system.ECommerceSystem` slice of the global
node range with its own simulator, random streams, and scheduler
domain, so shards are embarrassingly parallel: the fleet maps a picklable
:class:`_ShardTask` over the ambient :mod:`repro.exec` backend and
merges shard results **in submission order** -- the same discipline
that makes replication sweeps bit-identical across backends makes the
fleet's merged result identical whether its shards ran serially or on
a process pool.

Determinism
-----------
Shard ``i`` of a fleet seeded ``s`` draws from ``s + 104729 * (i + 1)``
(:data:`FLEET_SHARD_RULE`): a fixed large prime stride keeps shard
streams disjoint from the replication (``seed + i``) and campaign
(``seed + 1000 * scenario + i``) seed protocols, so a fleet embedded in
a campaign cell never shares a stream with a neighbouring replication.
Transactions and warmup are split across shards proportionally to
shard size by cumulative rounding (the splits sum exactly).

Merging
-------
Counters sum; response-time moments merge exactly via the Chan et al.
parallel update (each shard ships its raw ``(count, mean, M2, min,
max)``; the merged mean/std/max are *not* recomputed from per-shard
summaries); the loss fraction is recomputed from summed measured
losses; traces and rejuvenation times are stably merged by simulated
time; live aggregators and DES profiles merge with the existing
submission-order folds.  Coordinator grant logs concatenate into
:attr:`FleetSystem.grant_log` (sorted by grant time) for invariant
audits -- capacity floors and blast-radius limits are enforced per
shard (the shard is the coordination domain; see
:mod:`repro.systems.schedulers`), while pods are laid out on global
node indices and must not straddle shard boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.systems.protocol import ObsSpec, SystemSpec, register_system
from repro.systems.schedulers import SchedulerSpec

#: Seed stride between fleet shards (a prime far above campaign/sweep
#: strides): shard i of a fleet seeded s uses ``s + 104729 * (i + 1)``.
FLEET_SHARD_RULE = "fleet shard i: seed + 104729 * (i + 1)"

_SHARD_SEED_STRIDE = 104729


def shard_seed(seed: Optional[int], shard: int) -> Optional[int]:
    """The CRN seed for ``shard`` of a fleet seeded ``seed``."""
    if seed is None:
        return None
    return seed + _SHARD_SEED_STRIDE * (shard + 1)


def split_proportionally(total: int, weights: Tuple[int, ...]) -> List[int]:
    """Split ``total`` into integer parts proportional to ``weights``.

    Cumulative rounding: part ``i`` is the difference of consecutive
    ``floor(total * cum_i / sum)`` values, so the parts always sum to
    ``total`` exactly and the split is deterministic.
    """
    denom = sum(weights)
    if denom <= 0:
        raise ValueError("weights must sum to a positive total")
    parts: List[int] = []
    cum = 0
    prev = 0
    for weight in weights:
        cum += weight
        mark = (total * cum) // denom
        parts.append(mark - prev)
        prev = mark
    return parts


@dataclass(frozen=True)
class _ShardTask:
    """Everything one shard needs, as plain picklable data."""

    config: Any
    arrival: Any
    policy: Any
    n_nodes: int
    first_node: int
    total_nodes: int
    n_transactions: int
    warmup: int
    seed: Optional[int]
    balancer: str
    scheduler: Optional[SchedulerSpec]
    arrival_scale: float
    faults: Any
    collect: bool
    obs: ObsSpec


@dataclass(frozen=True)
class ShardOutcome:
    """One shard's converted result plus its raw merge ingredients."""

    result: Any  # RunResult
    #: Raw measured moments: (count, mean, M2, minimum, maximum).
    moments: Tuple[float, ...]
    measured_lost: int
    grants: Tuple[Tuple[float, int, float], ...]
    denied: int


def _run_shard(task: _ShardTask) -> ShardOutcome:
    """Run one shard to completion (module-level: pool-picklable)."""
    from repro.cluster.balancer import make_balancer
    from repro.systems.ecommerce import build_system

    scheduler = task.scheduler or SchedulerSpec.unrestricted()
    run = build_system(
        task.config,
        task.arrival,
        task.policy,
        task.seed,
        task.obs,
        task.faults,
        n_nodes=task.n_nodes,
        balancer=make_balancer(task.balancer),
        coordinator=scheduler.build(task.n_nodes, first_node=task.first_node),
        arrival_scale=task.arrival_scale,
        first_node_index=task.first_node,
        total_nodes=task.total_nodes,
    )
    result = run.run(
        task.n_transactions,
        warmup=task.warmup,
        collect_response_times=task.collect,
    )
    system = run.system
    moments = system.measured_moments
    return ShardOutcome(
        result=result,
        moments=(
            moments.count,
            moments.mean,
            moments._m2,
            moments.minimum,
            moments.maximum,
        ),
        measured_lost=system.measured_lost,
        grants=tuple(system.coordinator.grants),
        denied=system.coordinator.denied,
    )


@register_system
@dataclass(frozen=True)
class FleetSpec(SystemSpec):
    """A fleet of ``n_nodes`` nodes sharded into ``shards`` clusters."""

    kind = "fleet"

    n_nodes: int = 100
    shards: int = 4
    balancer: str = "round_robin"
    scheduler: Optional[SchedulerSpec] = None
    scale_arrivals: bool = True
    scale_transactions: bool = True

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("a fleet needs at least one node")
        if not 1 <= self.shards <= self.n_nodes:
            raise ValueError(
                f"shard count must lie in [1, n_nodes], got "
                f"{self.shards} for {self.n_nodes} nodes"
            )
        from repro.cluster.balancer import BALANCERS

        if self.balancer not in BALANCERS:
            raise ValueError(
                f"unknown balancer {self.balancer!r}; "
                f"available: {', '.join(sorted(BALANCERS))}"
            )
        if self.scheduler is not None and self.scheduler.pod_size is not None:
            for offset in self.shard_offsets():
                if offset % self.scheduler.pod_size != 0:
                    raise ValueError(
                        f"pod size {self.scheduler.pod_size} straddles a "
                        f"shard boundary at node {offset}; choose a pod "
                        "size dividing every shard offset so blast-radius "
                        "limits stay exact"
                    )

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetSpec":
        payload = dict(payload)
        scheduler = payload.get("scheduler")
        if isinstance(scheduler, dict):
            payload["scheduler"] = SchedulerSpec(**scheduler)
        return cls(**payload)

    # ------------------------------------------------------------------
    def shard_sizes(self) -> Tuple[int, ...]:
        """Node count per shard (remainder spread over the first shards)."""
        base, rem = divmod(self.n_nodes, self.shards)
        return tuple(
            base + (1 if i < rem else 0) for i in range(self.shards)
        )

    def shard_offsets(self) -> Tuple[int, ...]:
        """Each shard's first global node index."""
        offsets = []
        cursor = 0
        for size in self.shard_sizes():
            offsets.append(cursor)
            cursor += size
        return tuple(offsets)

    def job_transactions(self, n_transactions: int) -> int:
        if self.scale_transactions:
            return n_transactions * self.n_nodes
        return n_transactions

    def build(
        self,
        config: Any,
        arrival: Any,
        policy: Any,
        seed: Optional[int] = None,
        obs: Optional[ObsSpec] = None,
        faults: Any = None,
    ) -> "FleetSystem":
        return FleetSystem(
            self, config, arrival, policy, seed=seed, obs=obs, faults=faults
        )


class FleetSystem:
    """Runs a :class:`FleetSpec`'s shards and merges their results.

    Unlike the node and cluster substrates this system holds no live
    simulator of its own -- it is an orchestrator.  Shard tasks are
    plain data mapped over the ambient execution backend
    (:func:`repro.exec.backends.current_backend`); inside a process
    pool each worker is pinned to serial execution, so a fleet job in a
    campaign never nests pools.

    After :meth:`run`, :attr:`grant_log` holds every shard
    coordinator's audit trail ``(time, global_node, down_until)``
    merged by grant time (scheduler or not: each shard's coordinator
    logs its grants), and :attr:`shard_outcomes` the per-shard
    :class:`ShardOutcome` records.
    """

    def __init__(
        self,
        spec: FleetSpec,
        config: Any,
        arrival: Any,
        policy: Any,
        seed: Optional[int] = None,
        obs: Optional[ObsSpec] = None,
        faults: Any = None,
    ) -> None:
        obs = obs if obs is not None else ObsSpec()
        if obs.telemetry_interval_s is not None:
            raise ValueError(
                "telemetry probes are single-node instrumentation; "
                "the fleet substrate does not support them"
            )
        if obs.live is not None and obs.live.display is not None:
            raise ValueError(
                "a live display cannot watch a sharded fleet; drop the "
                "display (LiveSpec.without_display()) or run one cluster"
            )
        self.spec = spec
        self.config = config
        self.arrival = arrival
        self.policy = policy
        self.seed = seed
        self.obs = obs
        self.faults = faults
        self.grant_log: List[Tuple[float, int, float]] = []
        self.granted = 0
        self.denied = 0
        self.shard_outcomes: List[ShardOutcome] = []

    def _shard_tasks(
        self,
        n_transactions: int,
        warmup: int,
        collect: bool,
    ) -> List[_ShardTask]:
        spec = self.spec
        sizes = spec.shard_sizes()
        offsets = spec.shard_offsets()
        txn_split = split_proportionally(n_transactions, sizes)
        warm_split = split_proportionally(warmup, sizes)
        tasks = []
        for i, (size, offset) in enumerate(zip(sizes, offsets)):
            if txn_split[i] < 1:
                raise ValueError(
                    f"{n_transactions} transactions leave shard {i} of "
                    f"{spec.shards} empty; raise the horizon or use "
                    "fewer shards"
                )
            if not warm_split[i] < txn_split[i]:
                raise ValueError(
                    f"warmup {warmup} leaves shard {i} nothing to measure"
                )
            tasks.append(
                _ShardTask(
                    config=self.config,
                    arrival=self.arrival,
                    policy=self.policy,
                    n_nodes=size,
                    first_node=offset,
                    total_nodes=spec.n_nodes,
                    n_transactions=txn_split[i],
                    warmup=warm_split[i],
                    seed=shard_seed(self.seed, i),
                    balancer=spec.balancer,
                    scheduler=spec.scheduler,
                    arrival_scale=(
                        float(size)
                        if spec.scale_arrivals
                        else size / spec.n_nodes
                    ),
                    faults=self.faults,
                    collect=collect,
                    obs=self.obs,
                )
            )
        return tasks

    def run(
        self,
        n_transactions: int,
        warmup: int = 0,
        collect_response_times: bool = False,
    ):
        """Run every shard and merge, in shard-submission order."""
        from repro.exec.backends import current_backend

        if n_transactions < 1:
            raise ValueError("need at least one transaction")
        if not 0 <= warmup < n_transactions:
            raise ValueError("warmup must lie in [0, n_transactions)")
        tasks = self._shard_tasks(
            n_transactions, warmup, collect_response_times
        )
        outcomes = current_backend().map(_run_shard, tasks)
        self.shard_outcomes = list(outcomes)
        return self._merge(outcomes, n_transactions, warmup)

    def _merge(self, outcomes, n_transactions: int, warmup: int):
        from repro.ecommerce.metrics import RunResult
        from repro.stats.running import OnlineMoments

        results = [outcome.result for outcome in outcomes]
        moments = OnlineMoments()
        for outcome in outcomes:
            shard = OnlineMoments()
            (
                shard.count,
                shard.mean,
                shard._m2,
                shard.minimum,
                shard.maximum,
            ) = outcome.moments
            moments = moments.merge(shard)
        measured_lost = sum(o.measured_lost for o in outcomes)
        self.grant_log = sorted(
            (grant for o in outcomes for grant in o.grants),
            key=lambda grant: grant[0],
        )
        self.granted = len(self.grant_log)
        self.denied = sum(o.denied for o in outcomes)

        trace = None
        if self.obs.trace_level is not None:
            # Shard tracers return encoded traces; merge them without
            # decoding -- concatenate columns (shard submission order)
            # and stably re-sort by simulated time.
            from repro.obs.columnar.store import merge_batches_sorted

            trace = merge_batches_sorted([r.trace for r in results])
        response_times = None
        if any(r.response_times is not None for r in results):
            response_times = tuple(
                rt for r in results for rt in (r.response_times or ())
            )
        live = None
        if self.obs.live is not None:
            from repro.obs.live import merge_live

            live = merge_live(r.live for r in results)
        flight = None
        if any(r.flight for r in results):
            flight = tuple(
                dump for r in results for dump in (r.flight or ())
            )
        profile = None
        if self.obs.profile:
            from repro.obs.live import merge_profiles

            profile = merge_profiles(r.profile for r in results)
        return RunResult(
            arrivals=sum(r.arrivals for r in results),
            completed=sum(r.completed for r in results),
            lost=sum(r.lost for r in results),
            avg_response_time=moments.mean if moments.count else 0.0,
            rt_std=moments.std,
            max_response_time=moments.maximum if moments.count else 0.0,
            loss_fraction=measured_lost / (n_transactions - warmup),
            gc_count=sum(r.gc_count for r in results),
            rejuvenations=sum(r.rejuvenations for r in results),
            sim_duration_s=max(r.sim_duration_s for r in results),
            response_times=response_times,
            trace=trace,
            telemetry=None,
            rejuvenation_times=tuple(time for time, _, _ in self.grant_log),
            live=live,
            flight=flight,
            profile=profile,
            refused=sum(r.refused for r in results),
            nodes=tuple(stats for r in results for stats in r.nodes),
        )
