"""The cluster deployment end to end."""

import dataclasses

import pytest

from repro.cluster.balancer import JoinShortestQueue, RoundRobin
from repro.cluster.coordinator import RollingCoordinator
from repro.cluster.metrics import imbalance
from repro.core.buckets import SRAA
from repro.core.sla import PAPER_SLO
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.system import ECommerceSystem
from repro.ecommerce.workload import PoissonArrivals


def make_cluster(
    n_nodes=4,
    rate_per_node=1.6,
    policy_factory=lambda: SRAA(PAPER_SLO, 2, 5, 3),
    config=PAPER_CONFIG,
    seed=0,
    **kwargs,
):
    return ECommerceSystem(
        config,
        PoissonArrivals(n_nodes * rate_per_node),
        policy=policy_factory,
        seed=seed,
        n_nodes=n_nodes,
        **kwargs,
    )


class TestConservation:
    def test_all_transactions_resolve(self):
        result = make_cluster().run(4_000)
        assert result.completed + result.lost == 4_000
        assert result.arrivals == 4_000

    def test_per_node_counts_sum_to_totals(self):
        result = make_cluster().run(4_000)
        assert sum(n.dispatched for n in result.nodes) == 4_000
        assert sum(n.completed for n in result.nodes) == result.completed
        assert sum(n.lost for n in result.nodes) == result.lost

    def test_reproducible(self):
        a = make_cluster(seed=3).run(2_000)
        b = make_cluster(seed=3).run(2_000)
        assert a.avg_response_time == b.avg_response_time
        assert a.lost == b.lost

    def test_rerun_resets_state(self):
        cluster = make_cluster()
        first = cluster.run(2_000)
        second = cluster.run(2_000)
        assert second.arrivals == 2_000
        assert second.completed + second.lost == 2_000
        assert first.sim_duration_s > 0


class TestDispatching:
    def test_round_robin_balances_perfectly(self):
        result = make_cluster(balancer=RoundRobin()).run(4_000)
        assert imbalance(result.nodes) == pytest.approx(1.0, abs=0.01)

    def test_single_node_cluster_behaves_like_single_server(self):
        # A 1-node cluster is the Section-3 system; at a low load with
        # a policy it stays near the healthy 5 s baseline.
        result = make_cluster(n_nodes=1, rate_per_node=0.5).run(6_000)
        assert len(result.nodes) == 1
        assert result.avg_response_time < 10.0
        assert result.gc_count > 0  # the aging mechanism is active

    def test_jsq_no_worse_than_round_robin_under_load(self):
        rr = make_cluster(rate_per_node=1.8, seed=5).run(8_000)
        jsq = make_cluster(
            rate_per_node=1.8, seed=5, balancer=JoinShortestQueue()
        ).run(8_000)
        assert jsq.avg_response_time <= rr.avg_response_time * 1.2

    def test_more_nodes_absorb_more_load(self):
        # Same per-node load; the larger cluster should look the same
        # per node (scalability sanity).
        small = make_cluster(n_nodes=2, seed=7).run(4_000)
        large = make_cluster(n_nodes=6, seed=7).run(4_000)
        assert large.avg_response_time < 3 * max(
            small.avg_response_time, 5.0
        )


class TestRejuvenation:
    def test_nodes_rejuvenate_independently(self):
        result = make_cluster(rate_per_node=1.8).run(8_000)
        assert result.rejuvenations > 0
        rejuvenating_nodes = [
            n.name for n in result.nodes if n.rejuvenations > 0
        ]
        assert len(rejuvenating_nodes) >= 2

    def test_rejuvenation_controls_response_time(self):
        managed = make_cluster(rate_per_node=1.8, seed=9).run(8_000)
        unmanaged = make_cluster(
            rate_per_node=1.8, policy_factory=lambda: None, seed=9
        ).run(8_000)
        assert managed.avg_response_time < unmanaged.avg_response_time
        assert unmanaged.lost == 0

    def test_coordinator_limits_trigger_rate(self):
        open_cluster = make_cluster(rate_per_node=1.8, seed=11).run(8_000)
        throttled = make_cluster(
            rate_per_node=1.8,
            seed=11,
            coordinator=RollingCoordinator(min_gap_s=600.0),
        )
        throttled_result = throttled.run(8_000)
        assert throttled_result.rejuvenations < open_cluster.rejuvenations
        assert throttled.coordinator.denied > 0

    def test_downtime_refuses_arrivals_when_all_down(self):
        config = dataclasses.replace(
            PAPER_CONFIG, rejuvenation_downtime_s=400.0
        )
        cluster = make_cluster(
            n_nodes=1,
            rate_per_node=1.8,
            config=config,
            seed=13,
        )
        result = cluster.run(4_000)
        assert result.refused > 0
        assert result.completed + result.lost == 4_000


class _AlwaysTrigger:
    """A policy that fires on every completion (worst-case flapping)."""

    name = "always"

    def observe(self, value):
        return True

    def reset(self):
        pass

    def set_listener(self, listener):
        pass


class TestWholeClusterDowntime:
    """Lost-transaction accounting when every node is in rejuvenation
    downtime at once (no coordinator to stagger the restarts)."""

    def run_all_down(self, n_nodes=3):
        config = dataclasses.replace(
            PAPER_CONFIG, rejuvenation_downtime_s=500.0
        )
        cluster = make_cluster(
            n_nodes=n_nodes,
            rate_per_node=1.8,
            policy_factory=_AlwaysTrigger,
            config=config,
            seed=17,
        )
        return cluster, cluster.run(3_000)

    def test_refusals_counted_and_conserved(self):
        cluster, result = self.run_all_down()
        assert result.refused > 0
        assert result.completed + result.lost == 3_000
        assert result.arrivals == 3_000

    def test_refusals_are_cluster_level_losses(self):
        # A refusal happens before dispatch, so it belongs to no node:
        # total lost = per-node (in-flight) losses + refused arrivals.
        cluster, result = self.run_all_down()
        per_node_lost = sum(n.lost for n in result.nodes)
        assert result.lost == per_node_lost + result.refused
        assert sum(n.dispatched for n in result.nodes) == (
            3_000 - result.refused
        )

    def test_loss_fraction_includes_refusals(self):
        cluster, result = self.run_all_down()
        assert result.loss_fraction == pytest.approx(result.lost / 3_000)
        assert result.loss_fraction > 0

    def test_every_node_simultaneously_down(self):
        cluster, result = self.run_all_down()
        # With every node down the eligibility fast path must report
        # an empty set, not fall back to "all nodes".
        assert any(until > 0 for until in cluster._down_until)
        assert result.rejuvenations >= cluster.n_nodes


class TestValidationAndMetrics:
    def test_needs_a_node(self):
        with pytest.raises(ValueError):
            make_cluster(n_nodes=0)

    def test_one_policy_instance_watches_one_node(self):
        with pytest.raises(ValueError, match="factory"):
            make_cluster(policy_factory=SRAA(PAPER_SLO, 2, 5, 3))

    def test_single_node_instrumentation_rejected(self):
        from repro.ecommerce.telemetry import Telemetry

        with pytest.raises(ValueError, match="single-node"):
            make_cluster(n_nodes=2, telemetry=Telemetry(10.0))

    def test_run_validation(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            cluster.run(0)
        with pytest.raises(ValueError):
            cluster.run(100, warmup=100)

    def test_node_stats_loss_fraction(self):
        result = make_cluster(rate_per_node=1.8).run(4_000)
        for node in result.nodes:
            assert 0.0 <= node.loss_fraction <= 1.0

    def test_imbalance_of_idle_cluster(self):
        from repro.cluster.metrics import NodeStats

        nodes = tuple(
            NodeStats(f"n{i}", 0, 0, 0, 0.0, 0, 0) for i in range(2)
        )
        assert imbalance(nodes) == 1.0


class TestHeterogeneousClusters:
    def test_per_node_configs_accepted(self):
        small_heap = dataclasses.replace(PAPER_CONFIG, heap_mb=500.0)
        cluster = ECommerceSystem(
            [PAPER_CONFIG, small_heap],
            PoissonArrivals(2 * 1.6),
            seed=31,
            n_nodes=2,
        )
        result = cluster.run(6_000)
        # The small-heap node collects garbage ~6x more often.
        big, small = result.nodes
        assert small.gc_count > 3 * big.gc_count

    def test_config_count_must_match(self):
        with pytest.raises(ValueError):
            ECommerceSystem(
                [PAPER_CONFIG], PoissonArrivals(1.0), n_nodes=2
            )

    def test_weighted_dispatch_matches_capacity(self):
        from repro.cluster.balancer import WeightedRoundRobin

        # A node with half the CPUs gets half the traffic.
        half = dataclasses.replace(PAPER_CONFIG, cpus=8)
        cluster = ECommerceSystem(
            [PAPER_CONFIG, half],
            PoissonArrivals(1.5),
            seed=32,
            n_nodes=2,
            balancer=WeightedRoundRobin([2.0, 1.0]),
        )
        result = cluster.run(3_000)
        big, small = result.nodes
        assert big.dispatched == pytest.approx(2 * small.dispatched, rel=0.01)

    def test_per_node_downtime_honoured(self):
        from repro.core.baselines import PeriodicRejuvenation

        down_config = dataclasses.replace(
            PAPER_CONFIG, rejuvenation_downtime_s=200.0
        )
        cluster = ECommerceSystem(
            [down_config, PAPER_CONFIG],
            PoissonArrivals(2 * 1.6),
            policy=lambda: PeriodicRejuvenation(period=200),
            seed=33,
            n_nodes=2,
        )
        result = cluster.run(4_000)
        # Node 0 spends time down, so node 1 receives more traffic.
        assert result.nodes[1].dispatched > result.nodes[0].dispatched
