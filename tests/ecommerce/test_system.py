"""The Section-3 simulation model: conservation, mechanisms, semantics."""

import dataclasses

import pytest

from repro.core.baselines import PeriodicRejuvenation
from repro.core.buckets import SRAA
from repro.core.sla import PAPER_SLO, ServiceLevelObjective
from repro.ecommerce.config import PAPER_CONFIG, SystemConfig
from repro.ecommerce.system import ECommerceSystem
from repro.ecommerce.workload import PoissonArrivals, TraceArrivals
from repro.faults.injectors import HeavyTailContamination

SLO = ServiceLevelObjective(mean=5.0, std=5.0)


def run_system(config, rate=1.6, policy=None, n=2_000, seed=0, **kwargs):
    system = ECommerceSystem(
        config, PoissonArrivals(rate), policy=policy, seed=seed
    )
    return system, system.run(n, **kwargs)


class TestConservation:
    def test_all_transactions_resolve(self):
        _, result = run_system(PAPER_CONFIG, rate=1.8, n=3_000)
        assert result.completed + result.lost == 3_000

    def test_no_policy_no_loss(self):
        _, result = run_system(PAPER_CONFIG, rate=1.8, n=2_000)
        assert result.lost == 0
        assert result.rejuvenations == 0

    def test_with_policy_conservation_holds(self):
        policy = SRAA(SLO, sample_size=2, n_buckets=1, depth=1)
        _, result = run_system(PAPER_CONFIG, rate=1.8, policy=policy, n=3_000)
        assert result.completed + result.lost == 3_000
        assert result.rejuvenations > 0

    def test_same_seed_reproduces_exactly(self):
        def once():
            policy = SRAA(SLO, sample_size=2, n_buckets=2, depth=2)
            _, result = run_system(
                PAPER_CONFIG, rate=1.8, policy=policy, n=2_000, seed=7
            )
            return result

        a, b = once(), once()
        assert a.avg_response_time == b.avg_response_time
        assert a.lost == b.lost
        assert a.rejuvenations == b.rejuvenations

    def test_heap_accounting_restored_after_drain(self):
        system, _ = run_system(PAPER_CONFIG, rate=0.5, n=500)
        # All jobs done: nothing live; garbage is whatever the last GC
        # left behind, bounded by the heap.
        assert system.node.live_mb == pytest.approx(0.0)
        assert 0.0 <= system.node.garbage_mb <= PAPER_CONFIG.heap_mb


class TestMMcReduction:
    def test_matches_analytical_mean(self):
        config = PAPER_CONFIG.without_degradation()
        _, result = run_system(config, rate=1.6, n=40_000, seed=3)
        # Theory: 5.0056 s at lambda = 1.6.
        assert result.avg_response_time == pytest.approx(5.006, rel=0.03)
        assert result.rt_std == pytest.approx(5.001, rel=0.05)

    def test_no_gc_events(self):
        config = PAPER_CONFIG.without_degradation()
        _, result = run_system(config, rate=1.6, n=5_000)
        assert result.gc_count == 0

    def test_low_load_mean_is_service_time(self):
        config = PAPER_CONFIG.without_degradation()
        _, result = run_system(config, rate=0.1, n=20_000, seed=4)
        assert result.avg_response_time == pytest.approx(5.0, rel=0.05)


class TestGarbageCollection:
    def test_gc_frequency_matches_heap_arithmetic(self):
        # Free heap falls below 100 MB after ~297 allocations of 10 MB
        # on a 3072 MB heap, so about one GC per ~298 transactions.
        _, result = run_system(PAPER_CONFIG, rate=0.5, n=3_000, seed=5)
        expected = 3_000 / 298
        assert result.gc_count == pytest.approx(expected, abs=2)

    def test_gc_pause_inflates_response_times(self):
        with_gc = PAPER_CONFIG
        without = dataclasses.replace(PAPER_CONFIG, enable_gc=False)
        _, degraded = run_system(with_gc, rate=1.6, n=5_000, seed=6)
        _, clean = run_system(without, rate=1.6, n=5_000, seed=6)
        assert degraded.avg_response_time > clean.avg_response_time + 0.2
        assert degraded.max_response_time >= 60.0

    def test_no_gc_when_heap_huge(self):
        config = dataclasses.replace(PAPER_CONFIG, heap_mb=1e9)
        _, result = run_system(config, rate=1.6, n=3_000)
        assert result.gc_count == 0

    def test_zero_pause_gc_still_reclaims(self):
        config = dataclasses.replace(PAPER_CONFIG, gc_pause_s=0.0)
        _, result = run_system(config, rate=1.6, n=3_000, seed=7)
        assert result.gc_count > 0
        assert result.max_response_time < 60.0


class TestKernelOverhead:
    def test_overhead_slows_service_under_backlog(self):
        # 200 simultaneous arrivals keep the system above the 50-thread
        # threshold for most of the drain, so doubled service times
        # dominate the response times.
        base = dataclasses.replace(
            PAPER_CONFIG, enable_gc=False, enable_overhead=True
        )
        off = dataclasses.replace(base, enable_overhead=False)

        def mean_rt(config, seed=8):
            system = ECommerceSystem(
                config, TraceArrivals([0.0] * 200), seed=seed
            )
            return system.run(200).avg_response_time

        assert mean_rt(base) > 1.5 * mean_rt(off)

    def test_no_overhead_below_threshold(self):
        # 40 simultaneous arrivals stay under the 50-thread threshold.
        base = dataclasses.replace(PAPER_CONFIG, enable_gc=False)
        off = dataclasses.replace(base, enable_overhead=False)

        def mean_rt(config):
            system = ECommerceSystem(
                config, TraceArrivals([0.0] * 40), seed=9
            )
            return system.run(40).avg_response_time

        assert mean_rt(base) == pytest.approx(mean_rt(off))


class TestRejuvenationSemantics:
    def test_rejuvenation_releases_memory(self):
        policy = PeriodicRejuvenation(period=100)
        system, result = run_system(
            PAPER_CONFIG, rate=1.6, policy=policy, n=3_000, seed=10
        )
        # Rejuvenating every 100 transactions keeps the heap fresh: the
        # ~300-transaction GC clock never expires.
        assert result.gc_count == 0
        assert result.rejuvenations > 20

    def test_executing_threads_lost(self):
        policy = PeriodicRejuvenation(period=50)
        _, result = run_system(
            PAPER_CONFIG, rate=1.8, policy=policy, n=2_000, seed=11
        )
        assert result.lost > 0

    def test_queued_transactions_survive_by_default(self):
        # A 200-job flash crowd with a trigger at the 50th completion:
        # by default only the 16 executing jobs die per trigger; with
        # rejuvenation_kills_queued the whole backlog goes too.
        def lost_with(kills_queued: bool) -> int:
            config = dataclasses.replace(
                PAPER_CONFIG, rejuvenation_kills_queued=kills_queued
            )
            system = ECommerceSystem(
                config,
                TraceArrivals([0.0] * 200),
                policy=PeriodicRejuvenation(period=50),
                seed=12,
            )
            return system.run(200).lost

        assert lost_with(True) > 2 * lost_with(False)

    def test_downtime_refuses_arrivals(self):
        config = dataclasses.replace(
            PAPER_CONFIG, rejuvenation_downtime_s=120.0
        )
        system = ECommerceSystem(
            config,
            PoissonArrivals(1.6),
            policy=PeriodicRejuvenation(period=100),
            seed=13,
        )
        result = system.run(2_000)
        # Lost = executing at triggers + arrivals during downtime; with
        # lambda = 1.6 and 120 s windows the downtime dominates.
        assert result.loss_fraction > 0.2

    def test_policy_state_cleared_on_trigger(self):
        policy = SRAA(SLO, sample_size=1, n_buckets=1, depth=1)
        system, result = run_system(
            PAPER_CONFIG, rate=1.8, policy=policy, n=2_000, seed=14
        )
        assert result.rejuvenations > 0
        assert policy.level == 0


class TestWarmup:
    def test_warmup_excluded_from_statistics(self):
        config = PAPER_CONFIG.without_degradation()
        system = ECommerceSystem(config, PoissonArrivals(1.6), seed=15)
        full = system.run(10_000, collect_response_times=True)
        system2 = ECommerceSystem(config, PoissonArrivals(1.6), seed=15)
        trimmed = system2.run(10_000, warmup=2_000)
        # Same draws, different measurement windows.
        assert trimmed.completed == full.completed
        assert trimmed.avg_response_time != full.avg_response_time

    def test_warmup_validation(self):
        system = ECommerceSystem(PAPER_CONFIG, PoissonArrivals(1.0))
        with pytest.raises(ValueError):
            system.run(100, warmup=100)
        with pytest.raises(ValueError):
            system.run(0)

    def test_collect_response_times(self):
        config = PAPER_CONFIG.without_degradation()
        system = ECommerceSystem(config, PoissonArrivals(1.6), seed=16)
        result = system.run(500, collect_response_times=True)
        assert result.response_times is not None
        assert len(result.response_times) == result.completed
        assert all(rt >= 0 for rt in result.response_times)

    def test_rerun_resets_everything(self):
        system = ECommerceSystem(PAPER_CONFIG, PoissonArrivals(1.6), seed=17)
        first = system.run(1_000)
        second = system.run(1_000)
        # Fresh state, but the RNG streams continue: counts match.
        assert second.completed + second.lost == 1_000
        assert first.arrivals == second.arrivals == 1_000


class TestGCPauseModel:
    def test_proportional_pause_scales_with_garbage(self):
        # The GC fires when garbage is ~2972 MB of 3072 MB, so the
        # proportional pause is ~58 s -- nearly the fixed 60 s.  With a
        # *small* heap the proportional pause shrinks accordingly.
        small_heap = dataclasses.replace(
            PAPER_CONFIG,
            heap_mb=400.0,
            gc_threshold_mb=100.0,
            gc_pause_model="proportional",
        )
        fixed_small = dataclasses.replace(
            small_heap, gc_pause_model="fixed"
        )
        _, proportional = run_system(small_heap, rate=1.6, n=4_000, seed=21)
        _, fixed = run_system(fixed_small, rate=1.6, n=4_000, seed=21)
        assert proportional.gc_count > 0
        # Pause ~ 60 * 300/400 = 45 s vs fixed 60 s: less RT damage.
        assert (
            proportional.avg_response_time < fixed.avg_response_time
        )

    def test_proportional_with_full_heap_matches_fixed(self):
        proportional = dataclasses.replace(
            PAPER_CONFIG, gc_pause_model="proportional"
        )
        _, a = run_system(proportional, rate=1.6, n=4_000, seed=22)
        _, b = run_system(PAPER_CONFIG, rate=1.6, n=4_000, seed=22)
        # Garbage at collection is ~97 % of the heap, so the two models
        # almost coincide on the paper's configuration.
        assert a.avg_response_time == pytest.approx(
            b.avg_response_time, rel=0.15
        )

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(PAPER_CONFIG, gc_pause_model="magic")


class TestRepeatedRuns:
    """A second ``run()`` continues the same random streams.

    The pinned values were produced by scalar draws on plain
    generators, before the arrival and service streams served their
    exponentials from pre-drawn blocks; the second run starts with part
    of a block unserved, and the contaminated node interleaves uniform
    and Pareto draws with the exponentials.
    """

    FIELDS = (
        "completed",
        "lost",
        "gc_count",
        "rejuvenations",
        "avg_response_time",
        "max_response_time",
        "sim_duration_s",
    )

    @pytest.mark.parametrize(
        "faults, expected",
        [
            (
                None,
                (2955, 45, 9, 3, 7.695921586819636, 85.59093269224036,
                 1939.7142088431785),
            ),
            (
                (HeavyTailContamination(
                    at_s=50.0, prob=0.3, alpha=1.5, scale_s=20.0,
                    duration_s=300.0,
                ),),
                (2805, 195, 7, 13, 16.135359843550866, 108.36536024564418,
                 1936.8465882162475),
            ),
        ],
        ids=["poisson", "contamination"],
    )
    def test_second_run_is_pinned(self, faults, expected):
        system = ECommerceSystem(
            PAPER_CONFIG,
            PoissonArrivals(rate=1.6),
            policy=SRAA(PAPER_SLO, 2, 5, 3),
            seed=7,
            faults=faults,
        )
        system.run(3_000)
        second = system.run(3_000)
        assert tuple(getattr(second, f) for f in self.FIELDS) == expected
