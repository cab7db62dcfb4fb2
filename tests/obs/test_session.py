"""Trace sessions end to end: collection, round trip, determinism.

The round-trip test is the observability layer's acceptance gate: a
traced simulation is written to JSONL, reloaded, and every
``policy.trigger`` must join back (via ``batch_seq``) to a batch
decision whose threshold matches the policy's configured bucket target
-- i.e. the audit trail explains each rejuvenation exactly.
"""

import pytest

from repro.core.sla import PAPER_SLO
from repro.core.spec import PolicySpec
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.runner import run_replications
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.experiments.registry import run_experiment
from repro.experiments.scale import Scale
from repro.obs.events import (
    DES_EVENT,
    POLICY_BATCH,
    POLICY_TRIGGER,
    REQUEST_ARRIVAL,
    REQUEST_COMPLETE,
    RUN_META,
)
from repro.obs.session import (
    TraceSession,
    current_session,
    use_tracing,
)


def _traced_run(level="all", backend=None, replications=2, policy=None):
    session = TraceSession(level)
    with use_tracing(session):
        result = run_replications(
            PAPER_CONFIG,
            arrival=ArrivalSpec.poisson(1.8),
            policy=(
                policy if policy is not None else PolicySpec.sraa(2, 5, 3)
            ),
            n_transactions=2_000,
            replications=replications,
            seed=5,
            backend=backend or SerialBackend(),
        )
    return session, result


class TestSessionInstallation:
    def test_stack_discipline(self):
        assert current_session() is None
        session = TraceSession("spans")
        with use_tracing(session):
            assert current_session() is session
        assert current_session() is None

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            TraceSession("everything")

    def test_untraced_run_attaches_no_trace(self):
        result = run_replications(
            PAPER_CONFIG,
            arrival=ArrivalSpec.poisson(1.0),
            policy=None,
            n_transactions=200,
            replications=1,
            seed=0,
        )
        assert result.runs[0].trace is None


class TestSessionCollection:
    def test_one_traced_run_per_replication(self):
        session, _ = _traced_run(replications=3)
        assert [run.index for run in session.runs] == [0, 1, 2]
        assert [run.seed for run in session.runs] == [5, 6, 7]
        assert all(run.events for run in session.runs)

    @pytest.mark.parametrize(
        "name, n_jobs", [("autocorr", 5), ("cluster", 8), ("fleet", 6)]
    )
    def test_multi_node_and_autocorr_experiments_are_traced(
        self, name, n_jobs
    ):
        tiny = Scale(transactions=600, replications=1, loads=(9.0,))
        session = TraceSession("spans")
        with use_tracing(session):
            run_experiment(name, tiny, seed=0, backend=SerialBackend())
        assert len(session.runs) == n_jobs
        assert all(len(run.events) for run in session.runs)

    def test_levels_filter_event_categories(self):
        spans_session, _ = _traced_run(level="spans")
        types = {
            r["type"]
            for run in spans_session.runs
            for r in run.events.iter_records()
        }
        assert REQUEST_ARRIVAL in types
        assert POLICY_BATCH not in types
        assert DES_EVENT not in types

        decisions_session, _ = _traced_run(level="decisions")
        types = {
            r["type"]
            for run in decisions_session.runs
            for r in run.events.iter_records()
        }
        assert POLICY_BATCH in types
        assert REQUEST_ARRIVAL not in types
        assert DES_EVENT not in types

        all_session, _ = _traced_run(level="all")
        types = {
            r["type"]
            for run in all_session.runs
            for r in run.events.iter_records()
        }
        assert {REQUEST_ARRIVAL, POLICY_BATCH, DES_EVENT} <= types

    def test_records_start_each_run_with_meta(self):
        session, result = _traced_run(replications=2)
        records = list(session.records())
        metas = [r for r in records if r["type"] == RUN_META]
        assert len(metas) == 2
        assert metas[0]["data"]["completed"] == result.runs[0].completed

    def test_registry_counts_match_results(self):
        session, result = _traced_run(replications=2)
        snapshot = session.registry().snapshot()
        assert snapshot["repro_replications_total"] == 2
        assert snapshot["repro_completed_total"] == sum(
            r.completed for r in result.runs
        )
        assert (
            snapshot["repro_response_time_seconds"]["count"]
            == snapshot["repro_completed_total"]
        )


class TestJsonlRoundTrip:
    def test_triggers_join_to_batches_with_configured_threshold(
        self, tmp_path
    ):
        """Satellite acceptance: reload the JSONL, match every trigger
        to its causing batch, and check the threshold is the policy's
        configured bucket target mu_X + N * sigma_X."""
        from repro.obs.exporters import read_jsonl

        session, _ = _traced_run(level="decisions")
        path = str(tmp_path / "trace.jsonl")
        session.write_jsonl(path)
        records = read_jsonl(path)

        triggers = [r for r in records if r["type"] == POLICY_TRIGGER]
        assert triggers, "scenario must rejuvenate for this test to bite"
        for trigger in triggers:
            data = trigger["data"]
            # The threshold in the trace is the configured SLO target
            # for the bucket the policy was in when it fired.
            expected = PAPER_SLO.shift_threshold(data["level"])
            assert data["threshold"] == pytest.approx(expected)
            # The trigger joins back to the batch decision that caused
            # it: same run, same seq, exceeding the same threshold.
            causes = [
                r
                for r in records
                if r["type"] == POLICY_BATCH
                and r["run"] == trigger["run"]
                and r["source"] == trigger["source"]
                and r["data"]["seq"] == data["batch_seq"]
            ]
            (cause,) = causes
            assert cause["data"]["batch_mean"] == data["batch_mean"]
            assert cause["data"]["target"] == data["threshold"]
            assert cause["data"]["exceeded"] is True

    def test_clta_threshold_is_policy_threshold(self, tmp_path):
        from repro.core.buckets import CLTA
        from repro.obs.exporters import read_jsonl

        session, _ = _traced_run(
            level="decisions", policy=PolicySpec.clta(2, z=1.96)
        )
        path = str(tmp_path / "clta.jsonl")
        session.write_jsonl(path)
        expected = CLTA(PAPER_SLO, sample_size=2, z=1.96).threshold
        triggers = [
            r for r in read_jsonl(path) if r["type"] == POLICY_TRIGGER
        ]
        assert triggers
        for trigger in triggers:
            assert trigger["data"]["threshold"] == pytest.approx(expected)


class TestBackendBitIdentity:
    def test_serial_and_pool_traces_are_identical(self):
        serial_session, serial_result = _traced_run(backend=SerialBackend())
        pool_session, pool_result = _traced_run(
            backend=ProcessPoolBackend(workers=2)
        )
        assert serial_result.runs == pool_result.runs
        assert list(serial_session.records()) == list(pool_session.records())
        assert (
            serial_session.registry().to_prometheus()
            == pool_session.registry().to_prometheus()
        )


class TestExplain:
    def test_names_bucket_threshold_and_batch_mean(self, tmp_path):
        from repro.obs.explain import explain_trace

        session, result = _traced_run(level="all")
        path = str(tmp_path / "trace.jsonl")
        session.write_jsonl(path)
        text = explain_trace(path)
        assert "trigger #1" in text
        assert "bucket" in text
        assert "threshold" in text
        assert "batch mean" in text
        # One explained trigger per rejuvenation.
        total = sum(int(r.rejuvenations) for r in result.runs)
        assert text.count("] trigger #") == total

    def test_spans_only_trace_points_at_trace_level(self, tmp_path):
        from repro.obs.explain import explain_trace

        session, result = _traced_run(level="spans")
        assert any(r.rejuvenations for r in result.runs)
        path = str(tmp_path / "spans.jsonl")
        session.write_jsonl(path)
        assert "--trace-level decisions" in explain_trace(path)

    def test_empty_file(self, tmp_path):
        from repro.obs.explain import explain_trace

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert "empty trace" in explain_trace(str(path))
