"""Statistical regression checks: z-tests, drift, the persistence filter.

Acceptance pins: an injected regression (doubled service time) is
flagged, and five same-seed reruns of the baseline spec stay quiet.
"""

from dataclasses import replace

import pytest

from repro.core.spec import PolicySpec
from repro.ecommerce.config import SystemConfig
from repro.ecommerce.runner import run_replications
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.backends import SerialBackend
from repro.obs.ledger import (
    Ledger,
    compare_entries,
    relative_check,
    replicated_outcomes,
    run_check,
    welch_check,
)
from repro.obs.ledger.manifest import simulate_manifest
from repro.obs.ledger.regress import compare_outcomes

CONFIG = SystemConfig()
ARRIVAL = ArrivalSpec.poisson(1.8)
POLICY = PolicySpec.sraa(2, 5, 3)
RUN_KWARGS = dict(
    arrival=ARRIVAL,
    policy=POLICY,
    n_transactions=1500,
    replications=3,
    seed=11,
)


def record(ledger, config=CONFIG, **overrides):
    """Run the scenario and append its entry, like the CLI does."""
    kwargs = dict(RUN_KWARGS)
    kwargs.update(overrides)
    result = run_replications(
        config, backend=SerialBackend(), **kwargs
    )
    manifest = simulate_manifest(
        config=config,
        arrival=kwargs["arrival"],
        policy=kwargs["policy"],
        n_transactions=kwargs["n_transactions"],
        replications=kwargs["replications"],
        seed=kwargs["seed"],
    )
    return ledger.append(manifest, replicated_outcomes(result))


@pytest.fixture
def ledger(tmp_path):
    return Ledger(str(tmp_path / "ledger"))


class TestWelchCheck:
    def test_identical_samples_pass(self):
        check = welch_check("rt", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert check.method == "welch-z"
        assert check.statistic == 0.0
        assert not check.exceeded

    def test_clear_shift_exceeds(self):
        check = welch_check(
            "rt", [1.0, 1.1, 0.9, 1.0], [3.0, 3.1, 2.9, 3.0]
        )
        assert check.exceeded
        assert abs(check.statistic) > check.threshold

    def test_single_replication_falls_back_to_relative(self):
        check = welch_check("rt", [1.0], [1.02], tolerance=0.05)
        assert check.method == "relative"
        assert not check.exceeded
        assert welch_check("rt", [1.0], [2.0], tolerance=0.05).exceeded

    def test_zero_variance_falls_back_to_relative(self):
        same = welch_check("rt", [2.0, 2.0], [2.0, 2.0])
        assert same.method == "relative"
        assert not same.exceeded
        shifted = welch_check("rt", [2.0, 2.0], [4.0, 4.0])
        assert shifted.exceeded


class TestRelativeCheck:
    def test_within_band_passes(self):
        assert not relative_check("m", 100.0, 104.0, tolerance=0.05).exceeded

    def test_outside_band_exceeds(self):
        assert relative_check("m", 100.0, 120.0, tolerance=0.05).exceeded

    def test_both_zero_passes(self):
        assert not relative_check("m", 0.0, 0.0).exceeded


class TestCompareOutcomes:
    def test_experiment_hash_short_circuit(self):
        checks = compare_outcomes(
            "experiment",
            {"result_hash": "abc", "tables": []},
            {"result_hash": "abc", "tables": []},
        )
        assert [c.method for c in checks] == ["hash"]
        assert not checks[0].exceeded

    def test_experiment_series_compared_on_hash_mismatch(self):
        baseline = {
            "result_hash": "abc",
            "tables": [
                {
                    "title": "T",
                    "series": [{"label": "A", "mean": 10.0}],
                }
            ],
        }
        candidate = {
            "result_hash": "xyz",
            "tables": [
                {
                    "title": "T",
                    "series": [{"label": "A", "mean": 13.0}],
                }
            ],
        }
        (check,) = compare_outcomes("experiment", baseline, candidate)
        assert check.metric == "T/A:mean"
        assert check.exceeded

    def test_faults_scores_matched_by_cell(self):
        base = {
            "scores": [
                {
                    "scenario": "s",
                    "policy": "SRAA",
                    "missed_rate": 0.0,
                    "mean_response_time_s": 5.0,
                }
            ]
        }
        cand = {
            "scores": [
                {
                    "scenario": "s",
                    "policy": "SRAA",
                    "missed_rate": 0.0,
                    "mean_response_time_s": 11.0,
                }
            ]
        }
        checks = compare_outcomes("faults", base, cand)
        by_metric = {c.metric: c for c in checks}
        assert not by_metric["s/SRAA:missed_rate"].exceeded
        assert by_metric["s/SRAA:mean_response_time_s"].exceeded

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown run kind"):
            compare_outcomes("mystery", {}, {})


class TestRunCheck:
    def test_same_seed_reruns_stay_quiet(self, ledger):
        baseline = record(ledger)
        for _ in range(5):
            candidate = record(ledger)
            report = run_check(ledger, baseline, candidate)
            assert report.manifest_match
            assert not report.exceeded
            assert report.streak == 0
            assert report.exit_code == 0

    def test_doubled_service_time_flags(self, ledger):
        baseline = record(ledger)
        # The injected regression: every transaction takes twice as
        # long (halved service rate).
        slowed = record(ledger, config=replace(CONFIG, service_rate=0.1))
        report = run_check(ledger, baseline, slowed)
        assert not report.manifest_match
        assert any("service_rate" in path for path in report.drift)
        assert report.exceeded
        rt = next(
            c for c in report.checks if c.metric == "avg_response_time"
        )
        assert rt.exceeded
        assert rt.candidate > rt.baseline

    def test_persistence_filter_flags_on_streak(self, ledger):
        baseline = record(ledger)
        slowed = record(ledger, config=replace(CONFIG, service_rate=0.1))
        first = run_check(ledger, baseline, slowed, persistence=2)
        assert first.exceeded and not first.flagged
        assert first.exit_code == 1
        second = run_check(ledger, baseline, slowed, persistence=2)
        assert second.flagged
        assert second.exit_code == 2

    def test_clean_check_resets_streak(self, ledger):
        baseline = record(ledger)
        slowed = record(ledger, config=replace(CONFIG, service_rate=0.1))
        run_check(ledger, baseline, slowed)
        healthy = record(ledger)
        report = run_check(ledger, baseline, healthy)
        assert report.streak == 0
        after = run_check(ledger, baseline, slowed, persistence=2)
        assert after.streak == 1  # the earlier streak was reset

    def test_kind_mismatch_is_drift(self, ledger):
        baseline = record(ledger)
        other = {**baseline, "kind": "faults", "id": "fau-9999-00000000"}
        report = run_check(ledger, baseline, other)
        assert "manifest.kind" in report.drift
        assert report.checks == []

    def test_persistence_must_be_positive(self, ledger):
        baseline = record(ledger)
        with pytest.raises(ValueError, match="persistence"):
            run_check(ledger, baseline, baseline, persistence=0)

    def test_compare_entries_keeps_no_streak(self, ledger):
        baseline = record(ledger)
        slowed = record(ledger, config=replace(CONFIG, service_rate=0.1))
        for _ in range(2):
            report = compare_entries(baseline, slowed, persistence=1)
            assert report.exceeded and report.streak == 0
        assert ledger.check_state() == {}
