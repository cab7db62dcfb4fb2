"""Rolling-restart coordination: gap, cap, pods and the grant log."""

import pytest

from repro.cluster.coordinator import RollingCoordinator


class TestMinimumGap:
    def test_enforced(self):
        coordinator = RollingCoordinator(min_gap_s=60.0)
        assert coordinator.request(0, now=0.0, downtime_s=0.0)
        assert not coordinator.request(1, now=59.9, downtime_s=0.0)
        assert coordinator.request(1, now=60.0, downtime_s=0.0)

    def test_denials_do_not_push_the_window(self):
        coordinator = RollingCoordinator(min_gap_s=60.0)
        coordinator.request(0, now=0.0, downtime_s=0.0)
        coordinator.request(1, now=30.0, downtime_s=0.0)  # denied
        # The gap still counts from the last *grant*.
        assert coordinator.request(1, now=60.0, downtime_s=0.0)

    def test_counters(self):
        coordinator = RollingCoordinator(min_gap_s=10.0)
        coordinator.request(0, now=0.0, downtime_s=0.0)
        coordinator.request(1, now=1.0, downtime_s=0.0)
        assert coordinator.granted == 1
        assert coordinator.denied == 1


class TestMaxNodesDown:
    def test_enforced_with_downtime(self):
        coordinator = RollingCoordinator(min_gap_s=0.0, max_nodes_down=1)
        assert coordinator.request(0, now=0.0, downtime_s=100.0)
        assert not coordinator.request(1, now=50.0, downtime_s=100.0)
        # Node 0 is back up at t=100.
        assert coordinator.request(1, now=101.0, downtime_s=100.0)

    def test_two_allowed(self):
        coordinator = RollingCoordinator(min_gap_s=0.0, max_nodes_down=2)
        assert coordinator.request(0, now=0.0, downtime_s=100.0)
        assert coordinator.request(1, now=1.0, downtime_s=100.0)
        assert not coordinator.request(2, now=2.0, downtime_s=100.0)

    def test_not_binding_without_downtime(self):
        coordinator = RollingCoordinator(min_gap_s=0.0, max_nodes_down=1)
        for i in range(5):
            assert coordinator.request(i, now=float(i), downtime_s=0.0)

    def test_cap_counts_distinct_nodes(self):
        # Queued work survives a restart, so a node can trigger again
        # inside its own downtime; it still occupies one slot.
        coordinator = RollingCoordinator(max_nodes_down=2)
        assert coordinator.request(0, now=0.0, downtime_s=100.0)
        assert coordinator.request(0, now=10.0, downtime_s=100.0)
        assert coordinator.nodes_down(10.0) == 1
        assert coordinator.request(1, now=20.0, downtime_s=100.0)

    def test_nodes_down_expires(self):
        coordinator = RollingCoordinator(max_nodes_down=1)
        coordinator.request(0, now=0.0, downtime_s=10.0)
        assert coordinator.nodes_down(5.0) == 1
        assert coordinator.nodes_down(10.1) == 0


class TestSimultaneousRequests:
    """A burst of triggers at one instant (aging is correlated, so
    whole-cluster simultaneous requests are the common case)."""

    def test_cap_holds_under_simultaneous_triggers(self):
        coordinator = RollingCoordinator(min_gap_s=0.0, max_nodes_down=2)
        grants = [
            coordinator.request(node, now=500.0, downtime_s=60.0)
            for node in range(8)
        ]
        assert grants == [True, True] + [False] * 6
        assert coordinator.granted == 2
        assert coordinator.denied == 6
        assert coordinator.nodes_down(500.0) == 2

    def test_window_reopens_only_after_downtime(self):
        coordinator = RollingCoordinator(min_gap_s=0.0, max_nodes_down=2)
        for node in range(8):
            coordinator.request(node, now=500.0, downtime_s=60.0)
        assert not coordinator.request(5, now=559.9, downtime_s=60.0)
        assert coordinator.request(5, now=560.1, downtime_s=60.0)
        assert coordinator.nodes_down(560.1) == 1

    def test_gap_serialises_a_simultaneous_burst(self):
        coordinator = RollingCoordinator(min_gap_s=30.0, max_nodes_down=8)
        grants = [
            coordinator.request(node, now=100.0, downtime_s=0.0)
            for node in range(4)
        ]
        assert grants == [True, False, False, False]


class TestPods:
    def test_pod_blast_radius(self):
        # Pods of 2: nodes {0,1}, {2,3}.  One down per pod.
        coordinator = RollingCoordinator(
            max_nodes_down=10, pod_size=2, max_down_per_pod=1
        )
        assert coordinator.request(0, now=0.0, downtime_s=100.0)
        assert not coordinator.request(1, now=0.0, downtime_s=100.0)
        assert coordinator.request(2, now=0.0, downtime_s=100.0)
        assert not coordinator.request(3, now=0.0, downtime_s=100.0)

    def test_first_node_offsets_pod_membership(self):
        # The shard owns global nodes 4..7; pods of 4 -> one pod here.
        coordinator = RollingCoordinator(
            max_nodes_down=10,
            pod_size=4,
            max_down_per_pod=1,
            first_node=4,
        )
        assert coordinator.request(0, now=0.0, downtime_s=100.0)
        assert not coordinator.request(3, now=0.0, downtime_s=100.0)
        assert coordinator.grants[0][1] == 4  # logged globally


class TestGrantLog:
    def test_grant_log_records_downtime_window(self):
        coordinator = RollingCoordinator(first_node=10)
        coordinator.request(2, now=5.0, downtime_s=30.0)
        assert coordinator.grants == [(5.0, 12, 35.0)]

    def test_denials_leave_no_trace_in_the_log(self):
        coordinator = RollingCoordinator(max_nodes_down=1)
        coordinator.request(0, now=0.0, downtime_s=50.0)
        coordinator.request(1, now=1.0, downtime_s=50.0)
        assert len(coordinator.grants) == 1
        assert coordinator.denied == 1

    def test_scheduler_less_fleet_logs_every_shard(self):
        from repro.core.spec import PolicySpec
        from repro.ecommerce.config import PAPER_CONFIG
        from repro.ecommerce.spec import ArrivalSpec
        from repro.systems import FleetSpec

        spec = FleetSpec(n_nodes=8, shards=2)
        fleet = spec.build(
            PAPER_CONFIG,
            ArrivalSpec.poisson(PAPER_CONFIG.arrival_rate_for_load(9.0)),
            PolicySpec.sraa(2, 5, 3),
            seed=0,
        )
        result = fleet.run(4_000)
        assert len(fleet.grant_log) == result.rejuvenations > 0
        nodes = {node for _, node, _ in fleet.grant_log}
        assert nodes & set(range(4)) and nodes & set(range(4, 8))


class TestLifecycle:
    def test_reset(self):
        coordinator = RollingCoordinator(min_gap_s=60.0)
        coordinator.request(0, now=0.0, downtime_s=100.0)
        coordinator.reset()
        assert coordinator.grants == []
        assert coordinator.request(1, now=1.0, downtime_s=0.0)
        assert coordinator.granted == 1
        assert coordinator.nodes_down(1.0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingCoordinator(min_gap_s=-1.0)
        with pytest.raises(ValueError):
            RollingCoordinator(max_nodes_down=0)

    def test_unrestricted_grants_everything(self):
        coordinator = RollingCoordinator()
        for i in range(20):
            assert coordinator.request(i % 3, now=0.0, downtime_s=1e6)
