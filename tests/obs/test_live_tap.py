"""The live tap, the tee, and the cross-backend merge contract.

The acceptance criterion lives here: the merged live aggregator of a
replicated run must be *bit-identical* between the serial and
process-pool backends (submission-order folding of deterministic
merges), and the flight-recorder dumps likewise.
"""

import pickle

import pytest

from repro.core.spec import PolicySpec
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.runner import run_replications
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.obs.live import (
    LiveSpec,
    LiveTap,
    RecorderSpec,
    TeeTracer,
    compose_tracers,
    merge_live,
)
from repro.obs.tracer import Tracer


def make_tap(**spec_kwargs):
    return LiveSpec(**spec_kwargs).build()


class TestLiveTap:
    def test_tracer_protocol_flags(self):
        tap = make_tap()
        assert tap.spans and tap.decisions and not tap.engine
        assert len(tap.payload()) == 0  # the tap buffers nothing

    def test_response_times_feed_every_aggregator(self):
        tap = make_tap()
        for i, rt in enumerate((1.0, 2.0, 3.0, 4.0)):
            tap.emit(float(i), "request.complete", "system",
                     response_time=rt)
        snapshot = tap.aggregator.snapshot()
        assert snapshot["completed"] == 4
        assert snapshot["rt_mean"] == pytest.approx(2.5)
        assert snapshot["rt_max"] == 4.0
        assert snapshot["window_mean"] == pytest.approx(2.5)
        assert snapshot["rt_quantiles"]["p50"] in (2.0, 3.0)
        assert snapshot["ts"] == 3.0

    def test_policy_level_tracked(self):
        tap = make_tap()
        tap.emit(5.0, "policy.level", "policy:sraa", level=3)
        assert tap.aggregator.snapshot()["level"] == 3

    def test_counted_types(self):
        tap = make_tap()
        tap.emit(1.0, "request.loss", "node0", reason="rejuvenation")
        tap.emit(2.0, "system.gc", "node0", pause_s=0.5)
        tap.emit(3.0, "system.rejuvenation", "node0", lost=1)
        tap.emit(4.0, "fault.injected", "campaign", kind="surge")
        tap.emit(5.0, "policy.trigger", "policy:sraa", level=2)
        snapshot = tap.aggregator.snapshot()
        assert snapshot["lost"] == 1
        assert snapshot["gc"] == 1
        assert snapshot["rejuvenations"] == 1
        assert snapshot["faults"] == 1
        assert snapshot["triggers"] == 1

    def test_recorder_attached_and_dumps_exposed(self):
        tap = make_tap(recorder=RecorderSpec(cooldown_s=0.0))
        tap.emit(1.0, "request.complete", "system", response_time=1.0)
        tap.emit(2.0, "system.rejuvenation", "node0", lost=0)
        assert len(tap.dumps()) == 1
        assert tap.dumps()[0].reason == "system.rejuvenation"

    def test_clear_resets(self):
        tap = make_tap(recorder=RecorderSpec(cooldown_s=0.0))
        tap.emit(1.0, "request.complete", "system", response_time=1.0)
        tap.emit(2.0, "system.rejuvenation", "node0", lost=0)
        tap.clear()
        assert tap.aggregator.snapshot()["completed"] == 0
        assert tap.dumps() == ()

    def test_spec_without_display_is_picklable(self):
        spec = LiveSpec(display=lambda: None)
        with pytest.raises(Exception):
            pickle.dumps(spec)  # display handles never cross processes
        assert pickle.loads(pickle.dumps(spec.without_display()))


class TestTeeTracer:
    def test_flags_are_or_of_sinks(self):
        tracer = Tracer("spans")
        tap = make_tap()
        tee = TeeTracer([tracer, tap])
        assert tee.spans and tee.decisions and not tee.engine

    def test_each_sink_gets_only_its_categories(self):
        spans_only = Tracer("spans")
        tap = make_tap()  # wants spans and decisions
        tee = TeeTracer([spans_only, tap])
        tee.emit(1.0, "request.complete", "system", response_time=2.0)
        tee.emit(2.0, "policy.trigger", "policy:sraa", level=1)
        assert [
            r["type"] for r in spans_only.payload().iter_records()
        ] == ["request.complete"]
        snapshot = tap.aggregator.snapshot()
        assert snapshot["completed"] == 1 and snapshot["triggers"] == 1

    def test_events_come_from_the_buffering_sink(self):
        tracer = Tracer("spans")
        tap = make_tap()
        tee = TeeTracer([tap, tracer])  # tap first: buffers nothing
        tee.emit(1.0, "request.complete", "system", response_time=2.0)
        assert [r["type"] for r in tee.payload().iter_records()] == [
            "request.complete"
        ]

    def test_compose_tracers(self):
        tap = make_tap()
        assert compose_tracers(None, None) is None
        assert compose_tracers(None, tap) is tap
        assert isinstance(
            compose_tracers(Tracer("spans"), tap), TeeTracer
        )

    def test_empty_tee_rejected(self):
        with pytest.raises(ValueError):
            TeeTracer([])


class TestMergeLive:
    def test_merge_folds_counts_and_moments(self):
        a, b = make_tap(), make_tap()
        a.emit(1.0, "request.complete", "system", response_time=2.0)
        b.emit(2.0, "request.complete", "system", response_time=4.0)
        merged = merge_live([a.freeze(), None, b.freeze()])
        snapshot = merged.snapshot()
        assert snapshot["completed"] == 2
        assert snapshot["rt_mean"] == pytest.approx(3.0)

    def test_all_none_merges_to_none(self):
        assert merge_live([None, None]) is None


def _replicate(backend, live=None, profile=False):
    return run_replications(
        PAPER_CONFIG,
        arrival=ArrivalSpec.poisson(PAPER_CONFIG.arrival_rate_for_load(9.0)),
        policy=PolicySpec.sraa(2, 5, 3),
        n_transactions=400,
        replications=3,
        seed=20,
        backend=backend,
        live=live,
        profile=profile,
    )


class TestCrossBackendDeterminism:
    """ISSUE acceptance: serial vs pool merged sketches bit-identical."""

    LIVE = LiveSpec(recorder=RecorderSpec(slo_s=30.0, cooldown_s=0.0))

    def test_merged_live_bit_identical(self):
        serial = _replicate(SerialBackend(), live=self.LIVE)
        pooled = _replicate(ProcessPoolBackend(workers=2), live=self.LIVE)
        a, b = serial.merged_live(), pooled.merged_live()
        assert a is not None and b is not None
        # The snapshot covers moments, sketch quantiles, window,
        # rate and counts; dict equality is bit-exact (no approx).
        assert a.snapshot() == b.snapshot()
        qs = tuple(q / 100.0 for q in range(1, 100))
        assert a.sketch.quantiles(qs) == b.sketch.quantiles(qs)
        assert a.window.values() == b.window.values()

    def test_flight_dumps_bit_identical(self):
        serial = _replicate(SerialBackend(), live=self.LIVE)
        pooled = _replicate(ProcessPoolBackend(workers=2), live=self.LIVE)
        for run_s, run_p in zip(serial.runs, pooled.runs):
            assert run_s.flight == run_p.flight

    def test_profile_event_counts_bit_identical(self):
        # Seconds are wall-clock (machine noise); counts are exact.
        serial = _replicate(SerialBackend(), profile=True)
        pooled = _replicate(ProcessPoolBackend(workers=2), profile=True)
        a, b = serial.merged_profile(), pooled.merged_profile()
        assert [(e.kind, e.subsystem, e.events) for e in a.entries] == [
            (e.kind, e.subsystem, e.events) for e in b.entries
        ]

    def test_live_only_jobs_do_not_buffer_traces(self):
        result = _replicate(SerialBackend(), live=self.LIVE)
        assert all(run.trace is None for run in result.runs)
        assert all(run.live is not None for run in result.runs)
