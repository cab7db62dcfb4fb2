"""Rejuvenation in a cluster: balancing, coordination, rolling restarts.

The companion paper ([2]) extends the single-server algorithms to
clusters of hosts.  This example runs the Section-3 system with four
nodes behind a balancer at a high per-node load and asks three
operational questions:

1. Does the dispatching policy matter? (round-robin vs join-shortest-queue)
2. What does per-node SRAA monitoring buy over no rejuvenation?
3. When rejuvenation has real downtime, what does a rolling-restart
   coordinator cost/buy versus uncoordinated restarts?

Run:  python examples/cluster_rolling_restart.py
"""

import dataclasses

from repro.cluster import JoinShortestQueue, RollingCoordinator, RoundRobin
from repro.core import SRAA, PAPER_SLO
from repro.ecommerce import ECommerceSystem, PAPER_CONFIG, PoissonArrivals

N_NODES = 4
RATE_PER_NODE = 1.8  # offered load 9 CPUs per node
TRANSACTIONS = 20_000


def run(label, config=PAPER_CONFIG, policy=True, balancer=None,
        coordinator=None, seed=7):
    cluster = ECommerceSystem(
        config,
        PoissonArrivals(N_NODES * RATE_PER_NODE),
        policy=(lambda: SRAA(PAPER_SLO, 2, 5, 3)) if policy else None,
        seed=seed,
        n_nodes=N_NODES,
        balancer=balancer,
        coordinator=coordinator,
    )
    result = cluster.run(TRANSACTIONS)
    denied = cluster.coordinator.denied
    print(
        f"{label:<38} {result.avg_response_time:>8.2f} "
        f"{result.loss_fraction:>8.4f} {result.rejuvenations:>6d} "
        f"{result.refused:>8d} {denied:>7d}"
    )
    return result


def main() -> None:
    print(
        f"{N_NODES}-node cluster, {RATE_PER_NODE}/s per node "
        f"({TRANSACTIONS} transactions)\n"
    )
    header = (
        f"{'scenario':<38} {'avg RT':>8} {'loss':>8} {'rejuv':>6} "
        f"{'refused':>8} {'denied':>7}"
    )
    print(header)
    print("-" * len(header))

    run("no rejuvenation, round-robin", policy=False)
    run("SRAA per node, round-robin", balancer=RoundRobin())
    run("SRAA per node, join-shortest-queue", balancer=JoinShortestQueue())

    downtime = dataclasses.replace(
        PAPER_CONFIG, rejuvenation_downtime_s=30.0
    )
    run("SRAA + 30 s downtime, uncoordinated", config=downtime)
    run(
        "SRAA + 30 s downtime, rolling (gap 30 s)",
        config=downtime,
        coordinator=RollingCoordinator(min_gap_s=30.0, max_nodes_down=1),
    )
    run(
        "SRAA + 30 s downtime, rolling (gap 120 s)",
        config=downtime,
        coordinator=RollingCoordinator(min_gap_s=120.0, max_nodes_down=1),
    )

    print(
        "\nReading: per-node monitoring rescues the cluster from the "
        "GC-driven soft failure;\njoin-shortest-queue absorbs the "
        "transient imbalance that rejuvenations create.\nWith real "
        "restart downtime, a modest rolling gap halves the loss of the "
        "uncoordinated\ncluster by never taking two nodes out at once -- "
        "but over-throttling (120 s gap)\nstarves the detectors and "
        "lets the aging win: coordination is a tuning knob, not a\n"
        "free lunch."
    )


if __name__ == "__main__":
    main()
