"""Cluster-wide coordination of rejuvenation events.

With several nodes, uncoordinated triggers can restart half the cluster
in the same minute and crater its capacity.  The coordinator arbitrates
trigger *requests*: a node whose policy fires asks for permission, and
the coordinator enforces rolling-restart discipline:

* at most ``max_nodes_down`` distinct nodes may be inside their
  rejuvenation downtime simultaneously (unbounded by default);
* consecutive rejuvenations (cluster-wide) are spaced at least
  ``min_gap_s`` apart;
* with ``pod_size`` set, nodes are grouped into pods of ``pod_size``
  consecutive *global* indices and at most ``max_down_per_pod`` nodes
  of any one pod may be down at once -- the blast radius of the
  two-layer container/pod aging stack of Bai et al.

:class:`CanaryCoordinator` adds canary-first waves on top of those
limits.  Every coordinator records a grant log of ``(time,
global_node, down_until)`` tuples; tests replay it to assert the
capacity and blast-radius invariants held throughout a run.  The
declarative :class:`~repro.systems.schedulers.SchedulerSpec` builds
both classes.

A denied request is simply dropped: the node's policy has already reset
itself, so if the degradation is real the evidence re-accumulates and
the node asks again once the window opens -- which is exactly the
behaviour an operator wants from a flapping detector.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Effectively-unbounded cap on concurrently-down nodes.
UNBOUNDED = 10**9


class RollingCoordinator:
    """Arbitrates rejuvenation requests across a cluster.

    Tracks *which* node is down rather than only how many, so a node
    granted again inside its own downtime still counts once, and pod
    limits and the grant log know every node by its global index.

    Parameters
    ----------
    min_gap_s:
        Minimum simulated time between any two granted rejuvenations.
    max_nodes_down:
        Maximum number of distinct nodes simultaneously inside
        rejuvenation downtime (only binding when the system config has
        a positive ``rejuvenation_downtime_s``).
    pod_size:
        Blast-radius domain: consecutive global node indices grouped
        ``pod_size`` apart.  ``None`` disables pod limits.
    max_down_per_pod:
        Concurrently-down cap within one pod.
    first_node:
        Global index of the domain's first node: :meth:`request` takes
        the domain-local index and translates it for pod membership
        and the grant log.

    Examples
    --------
    >>> coordinator = RollingCoordinator(min_gap_s=60.0)
    >>> coordinator.request(node=0, now=0.0, downtime_s=0.0)
    True
    >>> coordinator.request(node=1, now=30.0, downtime_s=0.0)
    False
    >>> coordinator.request(node=1, now=61.0, downtime_s=0.0)
    True
    >>> coordinator.grants
    [(0.0, 0, 0.0), (61.0, 1, 61.0)]
    """

    def __init__(
        self,
        min_gap_s: float = 0.0,
        max_nodes_down: int = UNBOUNDED,
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

    def nodes_down(self, now: float) -> int:
        """Distinct nodes currently inside their rejuvenation downtime."""
        if self._down:
            self._down = {
                node: until
                for node, until in self._down.items()
                if until > now
            }
        return len(self._down)

    def _admit(self, global_node: int, now: float, downtime_s: float) -> bool:
        """The rolling limits (gap, cap, pod); no state changes on deny."""
        if now - self._last_grant < self.min_gap_s:
            return False
        if downtime_s > 0.0:
            if self.nodes_down(now) >= self.max_nodes_down:
                return False
            size = self.pod_size
            if size is not None:
                pod = global_node // size
                pod_down = sum(1 for n in self._down if n // size == pod)
                if pod_down >= self.max_down_per_pod:
                    return False
        return True

    def request(self, node: int, now: float, downtime_s: float) -> bool:
        """May local ``node`` rejuvenate at ``now``?  Grants are logged."""
        global_node = self.first_node + node
        if not self._admit(global_node, now, downtime_s):
            self.denied += 1
            return False
        self._last_grant = now
        until = now + downtime_s
        if downtime_s > 0.0:
            self._down[global_node] = until
        self.granted += 1
        self.grants.append((now, global_node, until))
        return True


class CanaryCoordinator(RollingCoordinator):
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
                if not super().request(node, now, downtime_s):
                    return False
                self._canary_done = now + downtime_s + self.canary_soak_s
                return True
            if now < self._canary_done:
                # The canary is still baking: hold the fleet back.
                self.denied += 1
                return False
            self._wave_open = True
        return super().request(node, now, downtime_s)
