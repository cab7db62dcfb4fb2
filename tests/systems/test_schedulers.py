"""Declarative schedulers and the canary discipline they build."""

import pytest

from repro.cluster.coordinator import CanaryCoordinator, RollingCoordinator
from repro.systems.schedulers import SchedulerSpec


class TestSchedulerSpec:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="unknown scheduler kind"):
            SchedulerSpec(kind="psychic")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_gap_s": -1.0},
            {"max_nodes_down": 0},
            {"capacity_floor": 1.0},
            {"capacity_floor": -0.1},
            {"pod_size": 0},
            {"max_down_per_pod": 0},
            {"canary_soak_s": -1.0},
            {"kind": "canary", "wave_quiet_s": 0.0},
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SchedulerSpec(**kwargs)

    def test_resolved_max_down_takes_the_tighter_cap(self):
        spec = SchedulerSpec.rolling(capacity_floor=0.8, max_nodes_down=1)
        assert spec.resolved_max_down(10) == 1
        spec = SchedulerSpec.rolling(capacity_floor=0.8, max_nodes_down=5)
        assert spec.resolved_max_down(10) == 2

    def test_floor_with_no_headroom_raises(self):
        spec = SchedulerSpec.rolling(capacity_floor=0.9)
        with pytest.raises(ValueError, match="capacity floor"):
            spec.resolved_max_down(4)

    def test_build_kinds(self):
        assert isinstance(
            SchedulerSpec.unrestricted().build(4), RollingCoordinator
        )
        assert isinstance(
            SchedulerSpec.canary().build(4), CanaryCoordinator
        )
        rolling = SchedulerSpec.rolling(capacity_floor=0.5).build(4)
        assert rolling.max_nodes_down == 2


class TestCanaryCoordinator:
    def test_canary_holds_the_fleet_until_soaked(self):
        coordinator = CanaryCoordinator(
            canary_soak_s=50.0, max_nodes_down=10
        )
        assert coordinator.request(0, now=0.0, downtime_s=100.0)
        # Canary done at 100, soaked at 150: everything until then waits.
        assert not coordinator.request(1, now=100.0, downtime_s=100.0)
        assert not coordinator.request(2, now=149.0, downtime_s=100.0)
        assert coordinator.request(1, now=150.0, downtime_s=100.0)
        assert coordinator.request(2, now=151.0, downtime_s=100.0)

    def test_open_wave_still_honours_rolling_limits(self):
        coordinator = CanaryCoordinator(canary_soak_s=0.0, max_nodes_down=2)
        assert coordinator.request(0, now=0.0, downtime_s=10.0)
        assert coordinator.request(1, now=10.5, downtime_s=100.0)
        assert coordinator.request(2, now=11.0, downtime_s=100.0)
        assert not coordinator.request(3, now=12.0, downtime_s=100.0)

    def test_quiet_wave_closes_and_restarts_with_a_canary(self):
        coordinator = CanaryCoordinator(
            canary_soak_s=40.0, wave_quiet_s=100.0, max_nodes_down=10
        )
        assert coordinator.request(0, now=0.0, downtime_s=10.0)
        assert coordinator.request(1, now=50.0, downtime_s=10.0)  # wave open
        # 200s of silence: the next trigger is a fresh canary.
        assert coordinator.request(2, now=250.0, downtime_s=10.0)
        assert not coordinator.request(3, now=255.0, downtime_s=10.0)
        assert coordinator.request(3, now=301.0, downtime_s=10.0)

    def test_denied_canary_volunteer_does_not_start_a_wave(self):
        coordinator = CanaryCoordinator(
            canary_soak_s=10.0, min_gap_s=100.0, max_nodes_down=10
        )
        assert coordinator.request(0, now=0.0, downtime_s=10.0)
        assert coordinator.request(1, now=120.0, downtime_s=10.0)
        # A new run: reset, then a gap-blocked volunteer.
        coordinator.reset()
        coordinator._last_grant = 0.0
        assert not coordinator.request(0, now=50.0, downtime_s=10.0)
        # The next eligible request still becomes the canary.
        assert coordinator.request(1, now=150.0, downtime_s=10.0)
        assert not coordinator.request(2, now=155.0, downtime_s=10.0)
