"""Per-node outcome of a run (``RunResult.nodes``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class NodeStats:
    """Per-node outcome of a run."""

    name: str
    dispatched: int
    completed: int
    lost: int
    avg_response_time: float
    rejuvenations: int
    gc_count: int

    @classmethod
    def of(cls, node) -> "NodeStats":
        """Freeze a :class:`~repro.ecommerce.node.ProcessingNode`'s counters."""
        return cls(
            name=node.name,
            dispatched=node.dispatched,
            completed=node.completed,
            lost=node.lost,
            avg_response_time=(
                node.rt_sum / node.completed if node.completed else 0.0
            ),
            rejuvenations=node.rejuvenations,
            gc_count=node.gc_count,
        )

    @property
    def loss_fraction(self) -> float:
        """Lost over dispatched for this node (0 for an idle node)."""
        if self.dispatched == 0:
            return 0.0
        return self.lost / self.dispatched


def imbalance(nodes: Sequence[NodeStats]) -> float:
    """Max/min ratio of per-node dispatched counts (1.0 = perfect).

    Takes a run's ``RunResult.nodes``.  Returns ``inf`` if any node
    received nothing while others did.
    """
    counts = [node.dispatched for node in nodes]
    low, high = min(counts), max(counts)
    if high == 0:
        return 1.0
    if low == 0:
        return float("inf")
    return high / low
