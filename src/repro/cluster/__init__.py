"""Cluster deployment of the rejuvenation algorithms.

The companion paper ([2], Avritzer, Bondi & Weyuker, *Journal of Systems
and Software* 2006) extends the single-server algorithms "to clusters of
hosts".  The cluster itself is
:class:`~repro.ecommerce.system.ECommerceSystem` with ``n_nodes > 1``;
this package holds the parts that only a cluster needs:

* :mod:`~repro.cluster.balancer` -- dispatching policies (round-robin,
  random, join-shortest-queue, weighted round-robin);
* :class:`~repro.cluster.coordinator.RollingCoordinator` -- cluster-wide
  constraints so rejuvenations roll through the cluster instead of
  taking several nodes out simultaneously, with a grant log (and
  :class:`~repro.cluster.coordinator.CanaryCoordinator`, canary-first
  waves on top of it);
* :class:`~repro.cluster.metrics.NodeStats` -- the per-node outcome on
  ``RunResult.nodes``, and :func:`~repro.cluster.metrics.imbalance`
  over it.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "JoinShortestQueue": ".balancer",
    "LoadBalancer": ".balancer",
    "RandomBalancer": ".balancer",
    "RoundRobin": ".balancer",
    "WeightedRoundRobin": ".balancer",
    "CanaryCoordinator": ".coordinator",
    "RollingCoordinator": ".coordinator",
    "NodeStats": ".metrics",
    "imbalance": ".metrics",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
