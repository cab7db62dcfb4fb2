"""Fault injectors: each one changes the system the way it claims to."""

import pickle

import numpy as np
import pytest

from repro.des.engine import Simulator
from repro.ecommerce.config import PAPER_CONFIG, SystemConfig
from repro.ecommerce.node import Job, ProcessingNode
from repro.ecommerce.spec import ArrivalSpec
from repro.ecommerce.system import ECommerceSystem
from repro.ecommerce.workload import PoissonArrivals
from repro.faults.injectors import (
    INJECTION_NAMES,
    INJECTION_TYPES,
    AgingAcceleration,
    CapacityErosion,
    HeavyTailContamination,
    NodeCrash,
    NodeHang,
    ServiceSlowdown,
    TrafficSurge,
    WorkloadRamp,
    WorkloadShift,
)

BASE = PAPER_CONFIG.without_degradation()
RATE = PAPER_CONFIG.arrival_rate_for_load(6.0)


def run_with(injections, n=600, seed=3, config=BASE, rate=RATE):
    system = ECommerceSystem(
        config,
        PoissonArrivals(rate),
        policy=None,
        seed=seed,
        faults=injections,
    )
    return system, system.run(n)


class TestWorkloadShift:
    def test_step_raises_throughput(self):
        _, calm = run_with(())
        _, shifted = run_with((WorkloadShift.step(at_s=50.0, rate=4.0),))
        # Same arrival count at a higher late rate: the run ends sooner.
        assert shifted.sim_duration_s < calm.sim_duration_s

    def test_same_injection_arms_identically_on_fresh_systems(self):
        shift = WorkloadShift.step(at_s=50.0, rate=4.0)
        _, first = run_with((shift,), seed=9)
        _, again = run_with((shift,), seed=9)
        assert first == again  # injections keep no state across arms

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadShift.step(at_s=-1.0, rate=2.0)


class TestWorkloadRamp:
    def test_ramp_compresses_run(self):
        _, calm = run_with(())
        ramp = WorkloadRamp(
            start_s=20.0, end_s=120.0, from_rate=RATE, to_rate=4.0, steps=5
        )
        _, ramped = run_with((ramp,))
        assert ramped.sim_duration_s < calm.sim_duration_s

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadRamp(10.0, 10.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            WorkloadRamp(0.0, 10.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            WorkloadRamp(0.0, 10.0, 1.0, 2.0, steps=0)


class TestTrafficSurge:
    def test_surge_restores_original_process(self):
        surge = TrafficSurge(at_s=50.0, factor=3.0, duration_s=60.0)
        system, result = run_with((surge,))
        # After the surge window the constructor's process is back.
        assert system.arrivals is system._base_arrivals
        assert result.arrivals == 600

    def test_surge_shortens_run(self):
        _, calm = run_with(())
        _, surged = run_with(
            (TrafficSurge(at_s=10.0, factor=3.0, duration_s=400.0),)
        )
        assert surged.sim_duration_s < calm.sim_duration_s

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficSurge(0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            TrafficSurge(0.0, 2.0, 0.0)


class TestServiceSlowdown:
    def test_persistent_slowdown_raises_rt(self):
        _, calm = run_with(())
        _, slowed = run_with((ServiceSlowdown(at_s=0.0, factor=3.0),))
        assert slowed.avg_response_time > 2.0 * calm.avg_response_time

    def test_transient_slowdown_restores_scale(self):
        slow = ServiceSlowdown(at_s=10.0, factor=3.0, duration_s=50.0)
        system, _ = run_with((slow,))
        assert system.node.service_scale == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceSlowdown(0.0, 0.0)
        with pytest.raises(ValueError):
            ServiceSlowdown(0.0, 2.0, duration_s=0.0)


class TestHeavyTailContamination:
    def test_contamination_inflates_max_rt(self):
        _, calm = run_with((), n=2000)
        contaminated = HeavyTailContamination(
            at_s=0.0, prob=0.3, alpha=1.5, scale_s=50.0
        )
        _, heavy = run_with((contaminated,), n=2000)
        assert heavy.max_response_time > 2.0 * calm.max_response_time
        assert heavy.avg_response_time > calm.avg_response_time

    def test_transient_contamination_cleared(self):
        contaminated = HeavyTailContamination(
            at_s=10.0, prob=0.5, alpha=1.5, scale_s=10.0, duration_s=30.0
        )
        system, _ = run_with((contaminated,))
        assert system.node.contamination is None

    def test_validation(self):
        with pytest.raises(ValueError):
            HeavyTailContamination(0.0, 0.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            HeavyTailContamination(0.0, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            HeavyTailContamination(0.0, 0.5, 1.5, 0.0)


class TestNodeCrash:
    def test_crash_loses_work_but_is_not_a_rejuvenation(self):
        system, result = run_with((NodeCrash(at_s=100.0, restart_s=30.0),))
        assert system.crashes == 1
        assert result.rejuvenations == 0
        assert result.rejuvenation_times == ()
        assert result.lost > 0
        assert result.completed + result.lost == result.arrivals

    def test_restart_window_refuses_arrivals(self):
        _, slow = run_with((NodeCrash(at_s=100.0, restart_s=60.0),))
        _, fast = run_with((NodeCrash(at_s=100.0, restart_s=0.0),))
        assert slow.lost > fast.lost

    def test_crash_resets_policy_state(self):
        from repro.core import SRAA, PAPER_SLO

        policy = SRAA(PAPER_SLO, sample_size=2, n_buckets=5, depth=3)
        system = ECommerceSystem(
            BASE,
            PoissonArrivals(RATE),
            policy=policy,
            seed=5,
            faults=(NodeCrash(at_s=100.0, restart_s=10.0),),
        )
        system.run(400)
        # No assertion on internals beyond: the run completes and the
        # crash is not recorded as a trigger.
        assert system.rejuvenation_times == [] or all(
            t != 100.0 for t in system.rejuvenation_times
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeCrash(-1.0)
        with pytest.raises(ValueError):
            NodeCrash(0.0, restart_s=-1.0)


class TestNodeHang:
    def test_hang_inflates_max_rt(self):
        _, calm = run_with(())
        _, hung = run_with((NodeHang(at_s=100.0, hang_s=40.0),))
        # A job caught by the stall waits out the full 40 s hang.
        assert hung.max_response_time >= 40.0
        assert hung.max_response_time > calm.max_response_time

    def test_system_healthy_after_hang(self):
        system, result = run_with((NodeHang(at_s=100.0, hang_s=15.0),))
        assert result.lost == 0
        assert system.node.gc_count == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeHang(0.0, 0.0)


class TestAgingAcceleration:
    def test_garbage_injection_drives_gc_without_alloc(self):
        from dataclasses import replace

        config = replace(PAPER_CONFIG, alloc_mb=0.0)
        aging = AgingAcceleration(
            start_s=50.0, rate_mb_s=30.0, interval_s=5.0
        )
        _, result = run_with((aging,), config=config, n=2000)
        assert result.gc_count > 0

    def test_bounded_injection_stops(self):
        from dataclasses import replace

        config = replace(PAPER_CONFIG, alloc_mb=0.0)
        aging = AgingAcceleration(
            start_s=50.0, rate_mb_s=1.0, interval_s=5.0, end_s=100.0
        )
        system, _ = run_with((aging,), config=config)
        assert system.node.garbage_mb <= 1.0 * 50.0 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            AgingAcceleration(0.0, 0.0)
        with pytest.raises(ValueError):
            AgingAcceleration(0.0, 1.0, interval_s=0.0)
        with pytest.raises(ValueError):
            AgingAcceleration(10.0, 1.0, end_s=10.0)


#: The eroding exchange of ref. [3]: 8 CPUs, mean service 2 s.  The
#: model-level erosion behaviour (conservation, no loss without a
#: policy, the floor, restoration by rejuvenation) is pinned by
#: tests/degradation/test_system.py.
EXCHANGE = SystemConfig(cpus=8, service_rate=0.5).without_degradation()


class TestCapacityErosion:
    def test_in_flight_work_survives_erosion(self):
        sim = Simulator()
        node = ProcessingNode(
            EXCHANGE,
            sim,
            np.random.default_rng(0),
            on_complete=lambda job, rt: None,
            on_loss=lambda job: pytest.fail("erosion killed work"),
        )
        for index in range(8):
            node.submit(Job(0.0, index))
        node.erode(floor=2)
        # Every CPU is busy: the CPU is owed, not taken from a job.
        assert node.free_cpus == -1
        assert len(node.in_service) == 8
        sim.run()
        assert node.completed == 8
        assert node.free_cpus == 7

    def test_both_nodes_of_a_cluster_erode(self):
        system = ECommerceSystem(
            EXCHANGE,
            PoissonArrivals(4.0),
            policy=None,
            seed=0,
            faults=(CapacityErosion(1 / 10.0, floor=3),),
            n_nodes=2,
        )
        result = system.run(4_000)
        assert [node.free_cpus for node in system.nodes] == [3, 3]
        assert result.lost == 0

    def test_announces_itself_once(self):
        from repro.obs.tracer import Tracer

        system = ECommerceSystem(
            EXCHANGE,
            PoissonArrivals(2.0),
            seed=0,
            faults=(CapacityErosion(1 / 10.0, floor=2),),
            tracer=Tracer("spans"),
        )
        faults = [
            record
            for record in system.run(500).trace.iter_records()
            if record["type"] == "fault.injected"
        ]
        assert [record["data"] for record in faults] == [
            {"kind": "erosion", "rate_per_s": 0.1, "floor": 2}
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            CapacityErosion(0.0)
        with pytest.raises(ValueError, match="rate"):
            CapacityErosion(float("nan"))
        with pytest.raises(ValueError, match="floor"):
            CapacityErosion(0.1, floor=0)

    def test_scenario_round_trip(self):
        from repro.faults.scenario import FaultScenario, scenario_from_dict

        scenario = FaultScenario(
            name="telecom",
            description="ref. [3] capacity erosion",
            config=EXCHANGE,
            arrival=ArrivalSpec.poisson(2.0),
            n_transactions=1_000,
            injections=(CapacityErosion(1 / 180.0, floor=2),),
            degraded=((0.0, float("inf")),),
        )
        payload = scenario.to_dict()
        assert payload["injections"] == [
            {"type": "erosion", "rate_per_s": 1 / 180.0, "floor": 2}
        ]
        assert scenario_from_dict(payload) == scenario


class TestRegistryAndPickling:
    def test_every_injection_type_registered_bidirectionally(self):
        for name, cls in INJECTION_TYPES.items():
            assert INJECTION_NAMES[cls] == name

    def test_injections_pickle(self):
        samples = (
            WorkloadShift.step(10.0, 2.0),
            WorkloadRamp(0.0, 10.0, 1.0, 2.0),
            TrafficSurge(0.0, 2.0, 10.0),
            ServiceSlowdown(0.0, 3.0),
            HeavyTailContamination(0.0, 0.2, 1.5, 10.0),
            NodeCrash(0.0, 5.0),
            NodeHang(0.0, 5.0),
            AgingAcceleration(0.0, 1.0),
            CapacityErosion(0.01, floor=2),
        )
        for injection in samples:
            assert pickle.loads(pickle.dumps(injection)) == injection

    def test_workload_shift_arrival_spec_survives_pickle(self):
        shift = WorkloadShift(
            at_s=5.0, arrival=ArrivalSpec.mmpp(1.0, 5.0, 30.0, 10.0)
        )
        assert pickle.loads(pickle.dumps(shift)) == shift
