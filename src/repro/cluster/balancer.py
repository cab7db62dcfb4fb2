"""Load-balancing policies for the cluster front end.

A balancer picks, for each arriving transaction, one of the *eligible*
nodes.  It always sees the full, stably-ordered node list plus the
indices currently eligible (nodes in rejuvenation downtime are excluded
by the cluster), so stateful policies keep consistent per-node state
even while some nodes are out.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ecommerce.node import ProcessingNode


class LoadBalancer(abc.ABC):
    """Strategy interface: choose a node for the next transaction."""

    @abc.abstractmethod
    def select(
        self,
        nodes: Sequence[ProcessingNode],
        eligible: Sequence[int],
        rng: np.random.Generator,
    ) -> int:
        """Return one of ``eligible`` (indices into ``nodes``).

        ``eligible`` is never empty; the cluster handles the all-down
        case before consulting the balancer.
        """

    def reset(self) -> None:
        """Forget internal state between runs (default: stateless)."""


class RoundRobin(LoadBalancer):
    """Cycle through the nodes in order, skipping ineligible ones."""

    def __init__(self) -> None:
        self._cursor = 0

    def select(
        self,
        nodes: Sequence[ProcessingNode],
        eligible: Sequence[int],
        rng: np.random.Generator,
    ) -> int:
        n_nodes = len(nodes)
        if len(eligible) == n_nodes:
            # Every node eligible: the next one in turn.
            candidate = self._cursor % n_nodes
            self._cursor += 1
            return candidate
        eligible_set = set(eligible)
        for _ in range(n_nodes):
            candidate = self._cursor % n_nodes
            self._cursor += 1
            if candidate in eligible_set:
                return candidate
        # Unreachable while `eligible` is non-empty.
        raise AssertionError("no eligible node")  # pragma: no cover

    def reset(self) -> None:
        self._cursor = 0


class RandomBalancer(LoadBalancer):
    """Pick an eligible node uniformly at random."""

    def select(
        self,
        nodes: Sequence[ProcessingNode],
        eligible: Sequence[int],
        rng: np.random.Generator,
    ) -> int:
        return int(eligible[int(rng.integers(len(eligible)))])


class JoinShortestQueue(LoadBalancer):
    """Send the job to the node with the fewest transactions in system.

    Ties break towards the lowest index, keeping runs deterministic.
    """

    def select(
        self,
        nodes: Sequence[ProcessingNode],
        eligible: Sequence[int],
        rng: np.random.Generator,
    ) -> int:
        return min(eligible, key=lambda i: (nodes[i].in_system, i))


class WeightedRoundRobin(LoadBalancer):
    """Smooth weighted round-robin (the nginx algorithm).

    Each eligible node's current weight grows by its configured weight
    per arrival; the node with the largest current weight is picked and
    pays back the sum of the competing weights.  Produces the evenly
    interleaved sequence expected from weighted dispatching.

    Parameters
    ----------
    weights:
        One positive weight per cluster node, by node index.
    """

    def __init__(self, weights: Sequence[float]) -> None:
        if not weights:
            raise ValueError("need at least one weight")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.weights = [float(w) for w in weights]
        self._current = [0.0] * len(self.weights)

    def select(
        self,
        nodes: Sequence[ProcessingNode],
        eligible: Sequence[int],
        rng: np.random.Generator,
    ) -> int:
        if len(nodes) != len(self.weights):
            raise ValueError(
                f"balancer configured for {len(self.weights)} nodes, "
                f"cluster has {len(nodes)}"
            )
        for i in eligible:
            self._current[i] += self.weights[i]
        best = max(eligible, key=lambda i: (self._current[i], -i))
        self._current[best] -= sum(self.weights[i] for i in eligible)
        return best

    def reset(self) -> None:
        self._current = [0.0] * len(self.weights)


#: Balancer names accepted by declarative system specs and the CLI
#: (``WeightedRoundRobin`` needs per-node weights, so it stays
#: construct-by-hand).
BALANCERS = {
    "round_robin": RoundRobin,
    "random": RandomBalancer,
    "jsq": JoinShortestQueue,
}


def make_balancer(name: str) -> LoadBalancer:
    """A fresh balancer from its registry name."""
    try:
        factory = BALANCERS[name]
    except KeyError:
        raise ValueError(
            f"unknown balancer {name!r}; available: "
            f"{', '.join(sorted(BALANCERS))}"
        ) from None
    return factory()
