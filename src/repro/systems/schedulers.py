"""Fleet-level rejuvenation schedulers (rolling, canary, blast radius).

The cluster layer's :class:`~repro.cluster.coordinator.RollingCoordinator`
arbitrates trigger requests with two knobs: a cluster-wide minimum gap
and an absolute cap on concurrently-down nodes.  At fleet scale the
operator vocabulary is richer -- Guo et al. schedule restarts around
deadlines, and container platforms roll restarts pod by pod -- so this
module generalises the coordinator into a declarative, picklable
:class:`SchedulerSpec` that builds one of three disciplines:

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
    Grant everything (the cluster layer's default), still recording
    the grant log so invariants stay checkable.

Both disciplines additionally honour a **blast radius**: with
``pod_size`` set, nodes are grouped into pods of ``pod_size``
consecutive *global* indices and at most ``max_down_per_pod`` nodes of
any one pod may be down simultaneously (the two-layer container/pod
aging stack of Bai et al.: losing a whole pod is the failure mode the
limit rules out).

In a sharded :class:`~repro.systems.fleet.FleetSystem` each shard
builds its own coordinator from the same spec -- shards run in
independent processes and cannot arbitrate across the wire -- so the
capacity floor and ``max_nodes_down`` are enforced *per shard* (the
shard is the coordination domain), while pods are laid out on global
node indices; the fleet refuses pod layouts that straddle shard
boundaries so the per-pod cap stays exact.

Every coordinator records a grant log of ``(time, global_node,
down_until)`` tuples; tests replay it to assert the capacity-floor and
blast-radius invariants held throughout a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The scheduler disciplines a spec may name.
SCHEDULER_KINDS: Tuple[str, ...] = ("rolling", "canary", "unrestricted")

#: Effectively-unbounded cap (mirrors UnrestrictedCoordinator).
_UNBOUNDED = 10**9


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
        return min(caps) if caps else _UNBOUNDED

    def build(self, n_nodes: int, first_node: int = 0) -> "FleetCoordinator":
        """A fresh coordinator for one domain of ``n_nodes`` nodes.

        ``first_node`` is the domain's global node offset (a fleet
        shard passes its slice's start so pod arithmetic and the grant
        log use global indices).
        """
        if n_nodes < 1:
            raise ValueError("a scheduling domain needs at least one node")
        if self.kind == "unrestricted":
            return FleetCoordinator(first_node=first_node)
        max_down = self.resolved_max_down(n_nodes)
        if self.kind == "rolling":
            return FleetCoordinator(
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


class FleetCoordinator:
    """Rolling-restart arbitration with pods and a grant log.

    Speaks the same ``reset()`` / ``request(node, now, downtime_s)``
    protocol as :class:`~repro.cluster.coordinator.RollingCoordinator`
    (so it plugs straight into a multi-node
    :class:`~repro.ecommerce.system.ECommerceSystem`)
    but tracks *which* node is down rather than only how many, which is
    what pod-level blast-radius limits and the auditable grant log
    need.

    ``node`` in :meth:`request` is the domain-local index;
    ``first_node`` translates it to the global index used for pod
    membership and the grant log.
    """

    def __init__(
        self,
        min_gap_s: float = 0.0,
        max_nodes_down: int = _UNBOUNDED,
        pod_size: Optional[int] = None,
        max_down_per_pod: int = 1,
        first_node: int = 0,
    ) -> None:
        if min_gap_s < 0:
            raise ValueError("minimum gap must be non-negative")
        if max_nodes_down < 1:
            raise ValueError("at least one node must be allowed down")
        if pod_size is not None and pod_size < 1:
            raise ValueError("pod size must be positive")
        if max_down_per_pod < 1:
            raise ValueError("max_down_per_pod must allow at least one node")
        self.min_gap_s = float(min_gap_s)
        self.max_nodes_down = int(max_nodes_down)
        self.pod_size = pod_size
        self.max_down_per_pod = int(max_down_per_pod)
        self.first_node = int(first_node)
        self.reset()

    def reset(self) -> None:
        """Forget history between runs (including the grant log)."""
        self._last_grant = -float("inf")
        self._down: Dict[int, float] = {}  # global node -> down_until
        self.granted = 0
        self.denied = 0
        #: Audit trail: ``(grant_time, global_node, down_until)``.
        self.grants: List[Tuple[float, int, float]] = []

    # ------------------------------------------------------------------
    def _prune(self, now: float) -> None:
        if self._down:
            self._down = {
                node: until
                for node, until in self._down.items()
                if until > now
            }

    def nodes_down(self, now: float) -> int:
        """Nodes currently inside their rejuvenation downtime."""
        self._prune(now)
        return len(self._down)

    def _pod_down(self, pod: int) -> int:
        size = self.pod_size
        assert size is not None
        return sum(1 for node in self._down if node // size == pod)

    def _admit(self, global_node: int, now: float, downtime_s: float) -> bool:
        """The rolling limits (gap, cap, pod); no state changes on deny."""
        if now - self._last_grant < self.min_gap_s:
            return False
        if downtime_s > 0.0:
            if self.nodes_down(now) >= self.max_nodes_down:
                return False
            if (
                self.pod_size is not None
                and self._pod_down(global_node // self.pod_size)
                >= self.max_down_per_pod
            ):
                return False
        return True

    def request(self, node: int, now: float, downtime_s: float) -> bool:
        """May local ``node`` rejuvenate at ``now``?  Grants are logged."""
        global_node = self.first_node + node
        if not self._admit(global_node, now, downtime_s):
            self.denied += 1
            return False
        self._grant(global_node, now, downtime_s)
        return True

    def _grant(self, global_node: int, now: float, downtime_s: float) -> None:
        self._last_grant = now
        until = now + downtime_s
        if downtime_s > 0.0:
            self._down[global_node] = until
        self.granted += 1
        self.grants.append((now, global_node, until))


class CanaryCoordinator(FleetCoordinator):
    """Canary-first waves on top of the rolling limits.

    State machine: the first trigger of a wave is the **canary** --
    granted alone, and every other request is denied until the canary's
    downtime plus ``canary_soak_s`` has elapsed.  The wave then opens
    and requests pass through the inherited rolling limits.  With
    ``wave_quiet_s`` set, a wave that sees no grant for that long
    closes, and the next trigger becomes a fresh canary.
    """

    def __init__(
        self,
        canary_soak_s: float = 0.0,
        wave_quiet_s: Optional[float] = None,
        **limits,
    ) -> None:
        self.canary_soak_s = float(canary_soak_s)
        self.wave_quiet_s = wave_quiet_s
        super().__init__(**limits)

    def reset(self) -> None:
        super().reset()
        self._canary_done: Optional[float] = None
        self._wave_open = False

    def request(self, node: int, now: float, downtime_s: float) -> bool:
        if (
            self._wave_open
            and self.wave_quiet_s is not None
            and now - self._last_grant > self.wave_quiet_s
        ):
            # The wave went quiet: the next grant starts a new canary.
            self._wave_open = False
            self._canary_done = None
        if not self._wave_open:
            if self._canary_done is None:
                # No canary in flight: this request volunteers.
                global_node = self.first_node + node
                if not self._admit(global_node, now, downtime_s):
                    self.denied += 1
                    return False
                self._grant(global_node, now, downtime_s)
                self._canary_done = now + downtime_s + self.canary_soak_s
                return True
            if now < self._canary_done:
                # The canary is still baking: hold the fleet back.
                self.denied += 1
                return False
            self._wave_open = True
        return super().request(node, now, downtime_s)
