"""PolicySpec / ArrivalSpec / ReplicationJob: build, validate, pickle."""

import pickle

import pytest

from repro.core.buckets import CLTA, SARAA, SRAA
from repro.core.spec import NO_POLICY, PolicySpec
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.spec import ArrivalSpec
from repro.ecommerce.workload import (
    MMPPArrivals,
    PeriodicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.exec.jobs import (
    ReplicationJob,
    build_arrival,
    build_policy,
    execute_job,
)


class TestPolicySpec:
    def test_sraa_builds_fresh_instances(self):
        spec = PolicySpec.sraa(2, 5, 3)
        first, second = spec.build(), spec.build()
        assert isinstance(first, SRAA)
        assert first is not second  # no detection state shared
        assert first.describe() == "SRAA(n=2, K=5, D=3)"

    def test_saraa_and_clta(self):
        assert isinstance(PolicySpec.saraa(2, 5, 3).build(), SARAA)
        clta = PolicySpec.clta(30, z=2.33).build()
        assert isinstance(clta, CLTA)
        assert "2.33" in clta.describe()

    def test_none_builds_nothing(self):
        spec = PolicySpec.none()
        assert spec.name == NO_POLICY
        assert spec.build() is None
        assert spec.describe() == "no rejuvenation"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            PolicySpec("quantum")

    def test_missing_params_fall_back_to_factory_defaults(self):
        built = PolicySpec("sraa", {"n": 2}).build()  # K, D default to 1
        assert built.describe() == "SRAA(n=2, K=1, D=1)"

    def test_bad_param_values_fail_at_build(self):
        spec = PolicySpec("sraa", {"n": "lots"})
        with pytest.raises(ValueError):
            spec.build()

    def test_params_defensively_copied(self):
        params = {"n": 2, "K": 5, "D": 3}
        spec = PolicySpec("sraa", params)
        params["n"] = 99
        assert spec.params["n"] == 2

    def test_round_trips_through_pickle(self):
        spec = PolicySpec.sraa(2, 5, 3)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.build().describe() == spec.build().describe()


class TestArrivalSpec:
    def test_poisson(self):
        process = ArrivalSpec.poisson(1.6).build()
        assert isinstance(process, PoissonArrivals)
        assert process.rate == 1.6

    def test_other_kinds(self):
        assert isinstance(
            ArrivalSpec.mmpp(1.0, 3.0, 100.0, 10.0).build(), MMPPArrivals
        )
        assert isinstance(
            ArrivalSpec.periodic(1.0, 0.5, 600.0).build(), PeriodicArrivals
        )
        assert isinstance(
            ArrivalSpec.trace([0.5, 1.0, 0.25]).build(), TraceArrivals
        )

    def test_fresh_instance_per_build(self):
        spec = ArrivalSpec.trace([0.5, 1.0])
        assert spec.build() is not spec.build()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec("weibull", {})

    def test_round_trips_through_pickle(self):
        spec = ArrivalSpec.mmpp(1.0, 3.0, 100.0, 10.0)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSources:
    def test_build_arrival_accepts_spec_and_factory(self):
        from_spec = build_arrival(ArrivalSpec.poisson(2.0))
        from_factory = build_arrival(lambda: PoissonArrivals(2.0))
        assert from_spec.rate == from_factory.rate == 2.0

    def test_build_policy_accepts_spec_factory_and_none(self):
        from repro.core.sla import PAPER_SLO

        assert isinstance(build_policy(PolicySpec.sraa(2, 5, 3)), SRAA)
        factory = lambda: SRAA(PAPER_SLO, sample_size=2, n_buckets=5, depth=3)
        assert isinstance(build_policy(factory), SRAA)
        assert build_policy(None) is None

    def test_bad_sources_rejected(self):
        with pytest.raises(TypeError):
            build_arrival(1.6)
        with pytest.raises(TypeError):
            build_policy("sraa")


class TestReplicationJob:
    def _job(self, **overrides):
        fields = dict(
            config=PAPER_CONFIG,
            arrival=ArrivalSpec.poisson(
                PAPER_CONFIG.arrival_rate_for_load(0.5)
            ),
            policy=PolicySpec.sraa(2, 5, 3),
            n_transactions=200,
            seed=11,
            tag=("replication", 0),
        )
        fields.update(overrides)
        return ReplicationJob(**fields)

    def test_job_is_picklable(self):
        job = self._job()
        assert pickle.loads(pickle.dumps(job)) == job

    def test_execute_matches_run_once(self):
        from repro.ecommerce.runner import run_once

        job = self._job()
        direct = run_once(
            PAPER_CONFIG,
            job.arrival.build(),
            job.policy.build(),
            n_transactions=job.n_transactions,
            seed=job.seed,
        )
        assert execute_job(job) == direct
