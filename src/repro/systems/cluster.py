"""The balanced-cluster substrate behind the ``System`` protocol.

A :class:`ClusterSpec` describes the topology (node count, balancer,
rejuvenation scheduler) while the job keeps supplying the per-node
config, the arrival source, and the policy source -- so a fault
campaign written for the single node runs on a cluster by swapping one
spec.  Two conventions keep single-node scenarios meaningful at
cluster scale:

* ``scale_arrivals`` multiplies the offered load by the node count
  (via the cluster's ``arrival_scale``, exact for Poisson processes),
  so each node sees the scenario's intended per-node load.
* ``scale_transactions`` multiplies the job's transaction budget by
  the node count, preserving the simulated *time* horizon -- a
  scenario's degraded interval hits the same wall-clock window.

The cluster is :class:`~repro.ecommerce.system.ECommerceSystem` with
``n_nodes`` nodes, so it returns the protocol's
:class:`~repro.ecommerce.metrics.RunResult` directly.  A one-node
cluster is the default single node, result and trace alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.systems.ecommerce import build_system
from repro.systems.protocol import (
    ObsSpec,
    SystemRun,
    SystemSpec,
    register_system,
)
from repro.systems.schedulers import SchedulerSpec


@register_system
@dataclass(frozen=True)
class ClusterSpec(SystemSpec):
    """N Section-3 nodes behind a balancer with per-node policies."""

    kind = "cluster"

    n_nodes: int = 4
    balancer: str = "round_robin"
    scheduler: Optional[SchedulerSpec] = None
    scale_arrivals: bool = True
    scale_transactions: bool = True

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        from repro.cluster.balancer import BALANCERS

        if self.balancer not in BALANCERS:
            raise ValueError(
                f"unknown balancer {self.balancer!r}; "
                f"available: {', '.join(sorted(BALANCERS))}"
            )

    @classmethod
    def from_dict(cls, payload: dict) -> "ClusterSpec":
        payload = dict(payload)
        scheduler = payload.get("scheduler")
        if isinstance(scheduler, dict):
            payload["scheduler"] = SchedulerSpec(**scheduler)
        return cls(**payload)

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
    ) -> SystemRun:
        from repro.cluster.balancer import make_balancer

        return build_system(
            config,
            arrival,
            policy,
            seed,
            obs,
            faults,
            n_nodes=self.n_nodes,
            balancer=make_balancer(self.balancer),
            coordinator=(
                self.scheduler.build(self.n_nodes)
                if self.scheduler is not None
                else None
            ),
            arrival_scale=float(self.n_nodes) if self.scale_arrivals else 1.0,
        )
