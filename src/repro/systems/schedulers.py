"""Declarative rejuvenation schedulers (rolling, canary, unrestricted).

The one coordinator hierarchy lives in :mod:`repro.cluster.coordinator`:
:class:`~repro.cluster.coordinator.RollingCoordinator` (minimum gap, a
cap on concurrently-down nodes, pod blast radius, grant log) and
:class:`~repro.cluster.coordinator.CanaryCoordinator` on top of it.
This module holds only :class:`SchedulerSpec`, the declarative,
picklable description of one discipline.  It rides inside job and
system specs, and its :meth:`~SchedulerSpec.build` makes a fresh
coordinator per scheduling domain:

``rolling``
    Rolling restarts under a **capacity floor**: at most
    ``floor((1 - capacity_floor) * n_nodes)`` nodes may be inside
    rejuvenation downtime at once (composable with an absolute
    ``max_nodes_down`` cap), optionally spaced ``min_gap_s`` apart.
``canary``
    **Canary-first** rejuvenation: the first trigger of a wave is
    granted alone; every other request is denied until the canary's
    downtime plus ``canary_soak_s`` has elapsed.  Then the wave opens
    under the rolling limits.  A wave with no grant for
    ``wave_quiet_s`` closes, and the next trigger starts a new canary.
``unrestricted``
    Grant everything: the same coordinator every system holds when no
    scheduler is given.

Both limited disciplines additionally honour a **blast radius** with
``pod_size`` set (Guo et al. schedule restarts around deadlines;
container platforms roll them pod by pod, and losing a whole pod is the
failure mode Bai et al.'s two-layer aging stack warns of).

In a sharded :class:`~repro.systems.fleet.FleetSystem` each shard
builds its own coordinator from the same spec -- shards run in
independent processes and cannot arbitrate across the wire -- so the
capacity floor and ``max_nodes_down`` are enforced *per shard* (the
shard is the coordination domain), while pods are laid out on global
node indices; the fleet refuses pod layouts that straddle shard
boundaries so the per-pod cap stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cluster.coordinator import (
    UNBOUNDED,
    CanaryCoordinator,
    RollingCoordinator,
)

#: The scheduler disciplines a spec may name.
SCHEDULER_KINDS: Tuple[str, ...] = ("rolling", "canary", "unrestricted")


@dataclass(frozen=True)
class SchedulerSpec:
    """A declarative, picklable fleet-rejuvenation scheduler.

    Plain data only, so it rides inside job and system specs across
    process boundaries; :meth:`build` makes one fresh coordinator per
    shard (or per cluster).

    Parameters
    ----------
    kind:
        ``rolling``, ``canary`` or ``unrestricted``.
    min_gap_s:
        Minimum simulated time between any two grants in the domain.
    max_nodes_down:
        Absolute cap on concurrently-down nodes (``None`` = no cap).
    capacity_floor:
        Fraction of the domain's nodes that must stay up: a floor of
        0.8 on a 10-node shard allows at most 2 nodes down at once.
        ``None`` disables the floor.
    pod_size:
        Blast-radius domain: consecutive global node indices grouped
        ``pod_size`` apart.  ``None`` disables pod limits.
    max_down_per_pod:
        Concurrently-down cap within one pod (default 1).
    canary_soak_s:
        ``canary`` only: extra soak time after the canary's downtime
        ends before the wave opens.
    wave_quiet_s:
        ``canary`` only: a wave with no grant for this long closes,
        and the next trigger starts a fresh canary cycle (``None``
        keeps the wave open to the end of the run).
    """

    kind: str = "rolling"
    min_gap_s: float = 0.0
    max_nodes_down: Optional[int] = None
    capacity_floor: Optional[float] = None
    pod_size: Optional[int] = None
    max_down_per_pod: int = 1
    canary_soak_s: float = 0.0
    wave_quiet_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULER_KINDS:
            raise ValueError(
                f"unknown scheduler kind {self.kind!r}; expected one of "
                f"{SCHEDULER_KINDS}"
            )
        if self.min_gap_s < 0:
            raise ValueError("minimum gap must be non-negative")
        if self.max_nodes_down is not None and self.max_nodes_down < 1:
            raise ValueError("max_nodes_down must allow at least one node")
        if self.capacity_floor is not None and not (
            0.0 <= self.capacity_floor < 1.0
        ):
            raise ValueError("capacity floor must lie in [0, 1)")
        if self.pod_size is not None and self.pod_size < 1:
            raise ValueError("pod size must be positive")
        if self.max_down_per_pod < 1:
            raise ValueError("max_down_per_pod must allow at least one node")
        if self.canary_soak_s < 0:
            raise ValueError("canary soak must be non-negative")
        if self.wave_quiet_s is not None and self.wave_quiet_s <= 0:
            raise ValueError("wave quiet window must be positive")

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def rolling(
        cls,
        min_gap_s: float = 0.0,
        capacity_floor: Optional[float] = None,
        max_nodes_down: Optional[int] = None,
        pod_size: Optional[int] = None,
        max_down_per_pod: int = 1,
    ) -> "SchedulerSpec":
        """Rolling restarts under a capacity floor and blast radius."""
        return cls(
            kind="rolling",
            min_gap_s=min_gap_s,
            capacity_floor=capacity_floor,
            max_nodes_down=max_nodes_down,
            pod_size=pod_size,
            max_down_per_pod=max_down_per_pod,
        )

    @classmethod
    def canary(
        cls,
        canary_soak_s: float = 0.0,
        wave_quiet_s: Optional[float] = None,
        min_gap_s: float = 0.0,
        capacity_floor: Optional[float] = None,
        max_nodes_down: Optional[int] = None,
        pod_size: Optional[int] = None,
        max_down_per_pod: int = 1,
    ) -> "SchedulerSpec":
        """Canary-first rejuvenation over the rolling limits."""
        return cls(
            kind="canary",
            min_gap_s=min_gap_s,
            capacity_floor=capacity_floor,
            max_nodes_down=max_nodes_down,
            pod_size=pod_size,
            max_down_per_pod=max_down_per_pod,
            canary_soak_s=canary_soak_s,
            wave_quiet_s=wave_quiet_s,
        )

    @classmethod
    def unrestricted(cls) -> "SchedulerSpec":
        """Grant every request (but keep the grant log)."""
        return cls(kind="unrestricted")

    # ------------------------------------------------------------------
    def resolved_max_down(self, n_nodes: int) -> int:
        """The effective concurrently-down cap for an ``n_nodes`` domain.

        Raises when the capacity floor leaves no room to rejuvenate at
        all -- the caller should use larger shards or a lower floor.
        """
        caps = []
        if self.max_nodes_down is not None:
            caps.append(self.max_nodes_down)
        if self.capacity_floor is not None:
            # The epsilon absorbs binary-fraction noise: a 0.8 floor on
            # 10 nodes must allow 2 down, not floor(1.9999...) == 1.
            allowed = math.floor(
                (1.0 - self.capacity_floor) * n_nodes + 1e-9
            )
            if allowed < 1:
                raise ValueError(
                    f"capacity floor {self.capacity_floor} leaves no node "
                    f"free to rejuvenate in a {n_nodes}-node domain; "
                    "lower the floor or use larger shards"
                )
            caps.append(allowed)
        return min(caps) if caps else UNBOUNDED

    def build(self, n_nodes: int, first_node: int = 0) -> RollingCoordinator:
        """A fresh coordinator for one domain of ``n_nodes`` nodes.

        ``first_node`` is the domain's global node offset (a fleet
        shard passes its slice's start so pod arithmetic and the grant
        log use global indices).
        """
        if n_nodes < 1:
            raise ValueError("a scheduling domain needs at least one node")
        if self.kind == "unrestricted":
            return RollingCoordinator(first_node=first_node)
        max_down = self.resolved_max_down(n_nodes)
        if self.kind == "rolling":
            return RollingCoordinator(
                min_gap_s=self.min_gap_s,
                max_nodes_down=max_down,
                pod_size=self.pod_size,
                max_down_per_pod=self.max_down_per_pod,
                first_node=first_node,
            )
        return CanaryCoordinator(
            min_gap_s=self.min_gap_s,
            max_nodes_down=max_down,
            pod_size=self.pod_size,
            max_down_per_pod=self.max_down_per_pod,
            first_node=first_node,
            canary_soak_s=self.canary_soak_s,
            wave_quiet_s=self.wave_quiet_s,
        )
