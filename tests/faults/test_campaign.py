"""Campaign acceptance: CRN seeds, backend bit-identity, robustness.

The headline test is the ISSUE's acceptance criterion: a campaign over
four built-in scenarios x {SRAA, SARAA, CLTA} x five replications is
bit-identical between the serial and the process-pool backends, and on
the ``false_aging`` blip scenario SRAA at paper-default parameters
misses nothing while the policies separate cleanly on false-alarm
rate.
"""

import pytest

from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.faults.campaign import (
    DEFAULT_POLICIES,
    campaign_jobs,
    run_campaign,
)
from repro.faults.zoo import builtin_scenarios, get_scenario

HORIZON_S = 600.0
REPLICATIONS = 5
SCENARIO_NAMES = (
    "aging_onset",
    "workload_shift",
    "traffic_surge",
    "false_aging",
)


def _scenarios():
    return [get_scenario(name, HORIZON_S) for name in SCENARIO_NAMES]


@pytest.fixture(scope="module")
def serial_campaign():
    return run_campaign(
        scenarios=_scenarios(),
        replications=REPLICATIONS,
        seed=0,
        backend=SerialBackend(),
    )


class TestCampaignJobs:
    def test_crn_seed_protocol(self):
        scenarios = _scenarios()[:2]
        jobs = campaign_jobs(
            scenarios, DEFAULT_POLICIES, replications=3, seed=7
        )
        assert len(jobs) == 2 * 3 * 3
        by_cell = {}
        for job in jobs:
            _, scenario, policy, rep = job.tag
            by_cell.setdefault((scenario, policy), []).append(job.seed)
            assert rep == len(by_cell[(scenario, policy)]) - 1
        # Every policy sees the same seeds on the same scenario (CRN).
        for s_index, scenario in enumerate(scenarios):
            expected = [7 + 1000 * s_index + i for i in range(3)]
            for label in DEFAULT_POLICIES:
                assert by_cell[(scenario.name, label)] == expected

    def test_jobs_carry_their_scenario(self):
        scenarios = _scenarios()[:1]
        jobs = campaign_jobs(
            scenarios, DEFAULT_POLICIES, replications=1, seed=0
        )
        assert all(job.faults == scenarios[0] for job in jobs)
        assert all(
            job.n_transactions == scenarios[0].n_transactions
            for job in jobs
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            campaign_jobs(_scenarios(), DEFAULT_POLICIES, replications=0)
        with pytest.raises(ValueError):
            campaign_jobs([], DEFAULT_POLICIES, replications=1)
        with pytest.raises(ValueError):
            campaign_jobs(_scenarios(), {}, replications=1)


class TestAcceptance:
    def test_serial_and_pool_campaigns_bit_identical(self, serial_campaign):
        pool = run_campaign(
            scenarios=_scenarios(),
            replications=REPLICATIONS,
            seed=0,
            backend=ProcessPoolBackend(workers=2),
        )
        assert pool.scores == serial_campaign.scores
        assert pool.runs == serial_campaign.runs

    def test_every_cell_scored(self, serial_campaign):
        assert len(serial_campaign.scores) == len(SCENARIO_NAMES) * len(
            DEFAULT_POLICIES
        )
        for score in serial_campaign.scores:
            assert score.replications == REPLICATIONS

    def test_false_aging_sraa_misses_nothing(self, serial_campaign):
        scores = {
            (s.scenario, s.policy): s for s in serial_campaign.scores
        }
        sraa = scores[("false_aging", "SRAA")]
        assert sraa.missed == 0
        assert sraa.detected == REPLICATIONS
        assert sraa.false_alarms == 0

    def test_false_aging_separates_policies_by_false_alarms(
        self, serial_campaign
    ):
        scores = {
            (s.scenario, s.policy): s for s in serial_campaign.scores
        }
        sraa = scores[("false_aging", "SRAA")]
        clta = scores[("false_aging", "CLTA")]
        # The 15 s blips cross CLTA's single-test threshold but cannot
        # climb SRAA's bucket chain: the false-alarm column separates
        # the designs.
        assert clta.false_alarms > sraa.false_alarms
        assert (
            clta.false_alarms_per_healthy_hour
            > sraa.false_alarms_per_healthy_hour
        )

    def test_genuine_aging_detected_by_every_policy(self, serial_campaign):
        for score in serial_campaign.scores:
            if score.scenario == "aging_onset":
                assert score.missed == 0
                assert score.mean_detection_latency_s is not None

    def test_runs_for_lookup(self, serial_campaign):
        cell = serial_campaign.runs_for("false_aging", "SRAA")
        assert len(cell) == REPLICATIONS
        with pytest.raises(KeyError):
            serial_campaign.runs_for("false_aging", "NONESUCH")

    def test_format_table_lists_every_cell(self, serial_campaign):
        table = serial_campaign.format_table()
        for name in SCENARIO_NAMES:
            assert name in table


class TestScoreTrace:
    def test_rescoring_a_trace_matches_direct_scores(self, tmp_path):
        # Every zoo scenario at a horizon other than the CLI default:
        # the ground truth comes from each run's own fault events, so
        # re-scoring needs no horizon and agrees in both file formats.
        from repro.faults.campaign import score_records
        from repro.obs.columnar.query import load_query
        from repro.obs.session import TraceSession, use_tracing

        session = TraceSession("spans")
        with use_tracing(session):
            campaign = run_campaign(
                scenarios=list(builtin_scenarios(HORIZON_S).values()),
                replications=1,
                seed=0,
                backend=SerialBackend(),
            )
        jsonl = str(tmp_path / "campaign.jsonl")
        rcol = str(tmp_path / "campaign.rcol")
        session.write_jsonl(jsonl)
        session.write_columnar(rcol)
        for path in (jsonl, rcol):
            assert score_records(load_query(path)) == campaign.scores

    def test_non_campaign_trace_rejected(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SystemExit, match="no campaign replications"):
            main(["faults", "score", str(path)])


class TestDefaults:
    def test_default_campaign_covers_the_zoo(self):
        # Job construction only -- no simulation.
        scenarios = list(builtin_scenarios(HORIZON_S).values())
        jobs = campaign_jobs(
            scenarios, DEFAULT_POLICIES, replications=1, seed=0
        )
        names = {job.tag[1] for job in jobs}
        assert names == set(builtin_scenarios(HORIZON_S))

    def test_default_policies_are_the_papers_contenders(self):
        assert set(DEFAULT_POLICIES) == {"SRAA", "SARAA", "CLTA"}
