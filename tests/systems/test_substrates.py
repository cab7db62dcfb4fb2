"""Substrate polymorphism: jobs, campaigns, and node-targeted faults
behave identically on every backend and dispatch by system kind."""

import dataclasses

import pytest

from repro.core.spec import PolicySpec
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.runner import run_replications
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.backends import make_backend, use_backend
from repro.exec.jobs import ReplicationJob, execute_job
from repro.faults.campaign import run_campaign
from repro.faults.injectors import NodeCrash, NodeHang
from repro.faults.zoo import get_scenario
from repro.systems import ClusterSpec, FleetSpec


def _job(system, n=800, seed=3):
    return ReplicationJob(
        config=PAPER_CONFIG,
        arrival=ArrivalSpec.poisson(1.6),
        policy=PolicySpec.sraa(2, 5, 3),
        n_transactions=n,
        seed=seed,
        system=system,
    )


class TestDefaultPathUnchanged:
    def test_none_and_ecommerce_kind_bit_identical(self):
        assert execute_job(_job(None)) == execute_job(_job("ecommerce"))


class TestBackendBitIdentity:
    """Serial and process-pool runs agree on every substrate."""

    @pytest.mark.parametrize(
        "system",
        [
            None,
            ClusterSpec(n_nodes=3),
            FleetSpec(n_nodes=6, shards=2),
        ],
        ids=["ecommerce", "cluster", "fleet"],
    )
    def test_replications_identical(self, system):
        kwargs = dict(
            config=PAPER_CONFIG,
            arrival=ArrivalSpec.poisson(1.6),
            policy=PolicySpec.sraa(2, 5, 3),
            n_transactions=400,
            replications=2,
            seed=11,
            system=system,
        )
        serial = run_replications(backend="serial", **kwargs)
        pooled = run_replications(
            backend=make_backend("process", workers=2), **kwargs
        )
        assert serial == pooled


class TestCampaignSubstrates:
    def _scores(self, system, backend):
        scenario = get_scenario("false_aging", 400.0)
        result = run_campaign(
            [scenario],
            {"SRAA": PolicySpec.sraa(2, 5, 3)},
            replications=2,
            seed=0,
            backend=backend,
            system=system,
        )
        return result.scores

    @pytest.mark.parametrize(
        "system",
        ["cluster", FleetSpec(n_nodes=6, shards=2)],
        ids=["cluster", "fleet"],
    )
    def test_campaign_bit_identical_across_backends(self, system):
        serial = self._scores(system, "serial")
        pooled = self._scores(system, make_backend("process", workers=2))
        assert serial == pooled

    def test_substrates_change_outcomes(self):
        single = self._scores(None, "serial")
        cluster = self._scores("cluster", "serial")
        assert single != cluster

    def test_scenario_horizon_preserved_by_scaling(self):
        # job_transactions scales the budget with node count, so the
        # simulated-time horizon (where scripted faults live) holds.
        from repro.faults.campaign import campaign_jobs

        scenario = get_scenario("false_aging", 400.0)
        jobs = campaign_jobs(
            [scenario],
            {"SRAA": PolicySpec.sraa(2, 5, 3)},
            1,
            system=ClusterSpec(n_nodes=4),
        )
        assert jobs[0].n_transactions == 4 * scenario.n_transactions


class TestNodeTargetedFaults:
    def _cluster_run(self, injections, n_nodes=3, seed=5):
        from repro.faults.scenario import FaultScenario

        scenario = FaultScenario(
            name="targeted",
            description="node-targeted faults",
            config=PAPER_CONFIG,
            arrival=ArrivalSpec.poisson(1.6),
            n_transactions=900,
            injections=injections,
        )
        job = dataclasses.replace(
            _job(ClusterSpec(n_nodes=n_nodes), n=900 * n_nodes, seed=seed),
            faults=scenario,
        )
        return execute_job(job)

    def test_crash_one_node_loses_less_than_crashing_all(self):
        one = self._cluster_run((NodeCrash(at_s=200.0, node=1),))
        all_nodes = self._cluster_run((NodeCrash(at_s=200.0),))
        assert one.lost <= all_nodes.lost

    def test_single_node_system_rejects_out_of_range_target(self):
        from repro.ecommerce.system import ECommerceSystem
        from repro.ecommerce.workload import PoissonArrivals

        system = ECommerceSystem(
            PAPER_CONFIG, PoissonArrivals(1.6), seed=0
        )
        with pytest.raises(ValueError, match="out of range"):
            system.fault_nodes(2)
        assert system.fault_nodes(0) == [system.node]
        assert system.fault_nodes() == [system.node]

    def test_cluster_global_index_resolves_locally(self):
        from repro.ecommerce.system import ECommerceSystem
        from repro.ecommerce.workload import PoissonArrivals

        shard = ECommerceSystem(
            PAPER_CONFIG,
            PoissonArrivals(3 * 1.6),
            seed=0,
            n_nodes=3,
            first_node_index=3,
            total_nodes=9,
        )
        assert shard.fault_nodes(4) == [shard.nodes[1]]
        assert shard.fault_nodes(0) == []  # lives in another shard
        assert len(shard.fault_nodes()) == 3
        with pytest.raises(ValueError, match="out of range"):
            shard.fault_nodes(9)

    def test_off_shard_target_is_a_noop(self):
        # A hang aimed at node 5 of a 3-node cluster slice (nodes 0-2
        # of 6) must not fire -- that node lives elsewhere.
        from repro.ecommerce.system import ECommerceSystem
        from repro.ecommerce.workload import PoissonArrivals

        def run_shard(faults):
            shard = ECommerceSystem(
                PAPER_CONFIG,
                PoissonArrivals(3 * 1.6),
                seed=5,
                faults=faults,
                n_nodes=3,
                first_node_index=0,
                total_nodes=6,
            )
            return shard.run(2700)

        clean = run_shard(())
        hung = run_shard((NodeHang(at_s=200.0, hang_s=60.0, node=5),))
        assert clean.avg_response_time == hung.avg_response_time
        assert clean.lost == hung.lost
