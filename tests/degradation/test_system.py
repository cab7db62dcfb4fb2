"""The smoothly degrading system of ref. [3].

The Section-3 node reduced to an M/M/c queue, with a
:class:`~repro.faults.injectors.CapacityErosion` fault taking its CPUs
one at a time until rejuvenation restores them.  The unit behaviour of
the injection lives in ``tests/faults/test_injectors.py``; these tests
pin the model-level behaviour the slow-drift study relies on.
"""

import pytest

from repro.core.baselines import PeriodicRejuvenation
from repro.core.sla import ServiceLevelObjective
from repro.core.sraa import SRAA
from repro.core.trend import TrendPolicy
from repro.ecommerce.config import SystemConfig
from repro.ecommerce.system import ECommerceSystem
from repro.ecommerce.workload import PeriodicArrivals, PoissonArrivals
from repro.faults.injectors import CapacityErosion


def make_system(
    degradation_rate=1 / 200.0,
    policy=None,
    rate=2.0,
    c_max=8,
    min_capacity=2,
    seed=0,
    arrivals=None,
):
    """``degradation_rate`` 0 runs the plain M/M/c with no erosion."""
    faults = (
        (CapacityErosion(degradation_rate, min_capacity),)
        if degradation_rate
        else ()
    )
    return ECommerceSystem(
        SystemConfig(cpus=c_max, service_rate=0.5).without_degradation(),
        arrivals if arrivals is not None else PoissonArrivals(rate),
        policy=policy,
        seed=seed,
        faults=faults,
    )


def capacity_around_rejuvenations(system):
    """Record (before, after) capacity around every rejuvenation."""
    node = system.node
    samples = []
    rejuvenate = node.rejuvenate

    def recording_rejuvenate():
        before = node.free_cpus + len(node.in_service)
        lost = rejuvenate()
        samples.append((before, node.free_cpus + len(node.in_service)))
        return lost

    node.rejuvenate = recording_rejuvenate
    return samples


class TestConservation:
    def test_all_transactions_resolve(self):
        result = make_system().run(3_000)
        assert result.completed + result.lost == 3_000

    def test_no_policy_no_loss(self):
        result = make_system().run(2_000)
        assert result.lost == 0
        assert result.rejuvenations == 0

    def test_reproducible(self):
        a = make_system(seed=4).run(2_000)
        b = make_system(seed=4).run(2_000)
        assert a == b

    def test_rerun_resets(self):
        system = make_system()
        system.run(1_000)
        result = system.run(1_000)
        assert result.arrivals == 1_000


class TestDegradationMechanics:
    def test_capacity_erodes_to_floor(self):
        # Fast degradation: the floor is reached and respected.
        system = make_system(degradation_rate=1 / 10.0)
        system.run(4_000)
        assert system.node.free_cpus == 2

    def test_no_degradation_is_plain_mmc(self):
        system = make_system(degradation_rate=0.0)
        result = system.run(6_000)
        assert system.node.free_cpus == 8
        # M/M/8 with rho = 0.5: mean RT slightly above 1/mu = 2.
        assert result.avg_response_time == pytest.approx(2.0, rel=0.1)

    def test_degradation_raises_response_times(self):
        healthy = make_system(degradation_rate=0.0, seed=6).run(6_000)
        degraded = make_system(degradation_rate=1 / 50.0, seed=6).run(6_000)
        assert (
            degraded.avg_response_time > 1.5 * healthy.avg_response_time
        )

    def test_in_flight_work_survives_capacity_loss(self):
        # Capacity is taken as servers free up; no transaction dies
        # from degradation alone.
        result = make_system(degradation_rate=1 / 5.0).run(2_000)
        assert result.lost == 0


class TestRejuvenation:
    def test_restores_capacity(self):
        system = make_system(
            degradation_rate=1 / 20.0,
            policy=PeriodicRejuvenation(period=500),
        )
        samples = capacity_around_rejuvenations(system)
        result = system.run(4_000)
        assert result.rejuvenations == len(samples) > 0
        # Capacity had eroded before each restart and was full after.
        assert all(before < 8 for before, _ in samples)
        assert all(after == 8 for _, after in samples)

    def test_rejuvenation_controls_drift(self):
        slo = ServiceLevelObjective(mean=2.0, std=2.0)
        unmanaged = make_system(degradation_rate=1 / 100.0, seed=8).run(8_000)
        managed = make_system(
            degradation_rate=1 / 100.0,
            policy=SRAA(slo, sample_size=2, n_buckets=3, depth=3),
            seed=8,
        ).run(8_000)
        assert managed.avg_response_time < unmanaged.avg_response_time
        assert managed.lost > 0  # the price

    def test_trend_policy_catches_slow_drift(self):
        # The regime ref. [3] cares about: no abrupt stalls, just a
        # slowly rising mean -- trend detection works here.
        slo_free_policy = TrendPolicy(sample_size=10, window=10, alpha=0.05)
        result = make_system(
            degradation_rate=1 / 60.0, policy=slo_free_policy, seed=9
        ).run(8_000)
        assert result.rejuvenations > 0

    def test_periodic_traffic_supported(self):
        system = make_system(
            degradation_rate=1 / 100.0,
            arrivals=PeriodicArrivals(2.0, amplitude=0.5, period_s=600.0),
            policy=PeriodicRejuvenation(period=1_000),
            seed=10,
        )
        result = system.run(5_000)
        assert result.completed + result.lost == 5_000


class TestValidation:
    def test_parameters(self):
        with pytest.raises(ValueError):
            make_system(c_max=0)
        with pytest.raises(ValueError):
            make_system(degradation_rate=-0.1)
        with pytest.raises(ValueError):
            make_system(min_capacity=0)
        with pytest.raises(ValueError):
            make_system().run(0)

    def test_collect_response_times(self):
        result = make_system().run(500, collect_response_times=True)
        assert result.response_times is not None
        assert len(result.response_times) == result.completed
