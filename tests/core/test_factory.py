"""String-keyed policy construction."""

import pytest

from repro.core.baselines import NeverRejuvenate, PeriodicRejuvenation
from repro.core.buckets import CLTA, SARAA, SRAA, StaticRejuvenation
from repro.core.factory import available_policies, make_policy
from repro.core.sla import PAPER_SLO
from repro.core.threshold import DeterministicThreshold, RiskBasedThreshold


class TestFactory:
    def test_available_policies_sorted_and_complete(self):
        names = available_policies()
        assert names == tuple(sorted(names))
        assert {"sraa", "saraa", "clta", "static", "never"} <= set(names)

    def test_every_listed_policy_constructs(self):
        for name in available_policies():
            policy = make_policy(name, PAPER_SLO)
            assert policy.observe(5.0) in (True, False)

    def test_sraa_parameters(self):
        policy = make_policy("sraa", PAPER_SLO, n=2, K=5, D=3)
        assert isinstance(policy, SRAA)
        assert policy.sample_size == 2
        assert policy.chain.n_buckets == 5
        assert policy.chain.depth == 3

    def test_saraa_parameters(self):
        policy = make_policy("saraa", PAPER_SLO, n=10, K=3, D=1)
        assert isinstance(policy, SARAA)
        assert policy.original_sample_size == 10

    def test_clta_parameters(self):
        policy = make_policy("clta", PAPER_SLO, n=15, z=2.33)
        assert isinstance(policy, CLTA)
        assert policy.sample_size == 15
        assert policy.z == 2.33

    def test_static(self):
        policy = make_policy("static", PAPER_SLO, K=3, D=5)
        assert isinstance(policy, StaticRejuvenation)
        assert policy.sample_size == 1

    def test_baselines(self):
        assert isinstance(make_policy("never", PAPER_SLO), NeverRejuvenate)
        periodic = make_policy("periodic", PAPER_SLO, period=50)
        assert isinstance(periodic, PeriodicRejuvenation)
        assert periodic.period == 50

    def test_thresholds(self):
        det = make_policy("threshold", PAPER_SLO, limit=12.0)
        assert isinstance(det, DeterministicThreshold)
        assert det.threshold == 12.0
        risk = make_policy("risk-threshold", PAPER_SLO, soft=8.0, hard=30.0)
        assert isinstance(risk, RiskBasedThreshold)
        assert (risk.soft_limit, risk.hard_limit) == (8.0, 30.0)

    def test_threshold_defaults_derive_from_slo(self):
        det = make_policy("threshold", PAPER_SLO)
        assert det.threshold == PAPER_SLO.shift_threshold(3)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("quantum", PAPER_SLO)


class TestDetectorConstruction:
    def test_adaptive_parameters(self):
        from repro.detect.adaptive import AdaptiveThresholdPolicy

        policy = make_policy(
            "adaptive", PAPER_SLO, n=3, window=32, k=3.5, patience=4
        )
        assert isinstance(policy, AdaptiveThresholdPolicy)
        assert policy.buffer.size == 3
        assert policy.baseline.size == 32
        assert policy.k_sigmas == 3.5
        assert policy.patience == 4

    def test_entropy_parameters(self):
        from repro.detect.entropy import EntropyPolicy

        policy = make_policy(
            "entropy", PAPER_SLO, window=64, bins=8, drift=0.4, warmup=64
        )
        assert isinstance(policy, EntropyPolicy)
        assert (policy.window, policy.bins) == (64, 8)
        assert policy.drift == 0.4

    def test_predictor_parameters(self):
        from repro.detect.predictor import TrendProjectionPolicy

        policy = make_policy(
            "predictor", PAPER_SLO, n=4, lookahead=8, bound=30.0
        )
        assert isinstance(policy, TrendProjectionPolicy)
        assert policy.buffer.size == 4
        assert policy.lookahead == 8
        assert policy.bound == 30.0

    def test_predictor_default_bound_follows_slo(self):
        policy = make_policy("predictor", PAPER_SLO)
        assert policy.bound == PAPER_SLO.shift_threshold(4)


class TestParameterSchema:
    def test_schema_covers_every_policy_in_order(self):
        from repro.core.factory import policy_schema

        schema = policy_schema()
        assert [entry["name"] for entry in schema] == list(
            available_policies()
        )
        for entry in schema:
            assert entry["summary"]
            for param in entry["params"]:
                assert set(param) == {"name", "type", "default", "doc"}

    def test_policy_parameters_raises_on_unknown(self):
        from repro.core.factory import policy_parameters

        with pytest.raises(ValueError, match="unknown policy"):
            policy_parameters("quantum")

    def test_unknown_parameter_rejected_with_accepted_list(self):
        with pytest.raises(ValueError, match="accepted"):
            make_policy("sraa", PAPER_SLO, n=2, bogus=1)
        with pytest.raises(ValueError, match="accepted"):
            make_policy("adaptive", PAPER_SLO, window=16, k_sigmas=3.0)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("sraa", {"n": 2.5}),
            ("sraa", {"K": float("inf")}),
            ("sraa", {"D": True}),
            ("sraa", {"n": float("nan")}),
            ("sraa", {"n": "2"}),
            ("clta", {"z": float("nan")}),
            ("clta", {"z": None}),
            ("threshold", {"limit": float("nan")}),
            ("periodic", {"period": 1e3 + 0.5}),
        ],
    )
    def test_values_checked_against_schema_type(self, name, params):
        with pytest.raises(ValueError, match="must be an? (number|integer)"):
            make_policy(name, PAPER_SLO, **params)

    def test_integral_values_accepted_for_int_and_float(self):
        policy = make_policy("sraa", PAPER_SLO, n=2.0, K=5, D=3)
        assert policy.describe() == "SRAA(n=2, K=5, D=3)"
        assert make_policy("clta", PAPER_SLO, n=30, z=2).z == 2.0
