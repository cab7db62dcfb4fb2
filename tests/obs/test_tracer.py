"""The event taxonomy and the per-replication tracer."""

import numpy as np
import pytest

from repro.obs.columnar.store import ColumnarTrace, encode_events
from repro.obs.events import (
    DECISION_TYPES,
    ENGINE_TYPES,
    POLICY_TRIGGER,
    REQUEST_COMPLETE,
    SPAN_TYPES,
    TraceEvent,
    category_of,
)
from repro.obs.tracer import TRACE_LEVELS, Tracer, validate_level


class TestTraceEvent:
    def test_round_trips_through_dict(self):
        event = TraceEvent(1.5, REQUEST_COMPLETE, "system", {"index": 3})
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_dict_shape(self):
        record = TraceEvent(2.0, POLICY_TRIGGER, "policy:SRAA", {}).to_dict()
        assert set(record) == {"ts", "type", "source", "data"}

    def test_category(self):
        assert TraceEvent(0.0, REQUEST_COMPLETE, "s", {}).category == "span"
        assert category_of(POLICY_TRIGGER) == "decision"
        assert category_of("run.meta") == "meta"

    def test_taxonomy_is_disjoint(self):
        assert not set(SPAN_TYPES) & set(DECISION_TYPES)
        assert not set(SPAN_TYPES) & set(ENGINE_TYPES)


class TestTracerLevels:
    def test_known_levels(self):
        assert TRACE_LEVELS == ("spans", "decisions", "all")

    @pytest.mark.parametrize("level", TRACE_LEVELS)
    def test_validate_accepts(self, level):
        assert validate_level(level) == level

    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError, match="trace level"):
            validate_level("verbose")

    def test_flag_matrix(self):
        assert (Tracer("spans").spans, Tracer("spans").decisions) == (
            True,
            False,
        )
        assert (
            Tracer("decisions").spans,
            Tracer("decisions").decisions,
        ) == (False, True)
        everything = Tracer("all")
        assert everything.spans and everything.decisions and everything.engine
        assert not Tracer("spans").engine and not Tracer("decisions").engine


class TestTracerBuffer:
    def test_emit_appends_typed_events(self):
        tracer = Tracer("all")
        tracer.emit(1.0, REQUEST_COMPLETE, "system", index=7, response_time=2.5)
        assert len(tracer) == 1
        (record,) = tracer.payload().iter_records()
        assert record["ts"] == 1.0
        assert record["type"] == REQUEST_COMPLETE
        assert record["data"] == {"index": 7, "response_time": 2.5}

    def test_clear(self):
        tracer = Tracer("all")
        tracer.emit(0.0, REQUEST_COMPLETE, "system")
        tracer.clear()
        assert len(tracer) == 0
        assert len(tracer.payload()) == 0

    def test_events_are_picklable(self):
        import pickle

        tracer = Tracer("spans")
        tracer.emit(3.0, REQUEST_COMPLETE, "system", index=1)
        tracer.emit(4.0, POLICY_TRIGGER, "policy:sraa", level=2, ok=True)
        payload = tracer.payload()
        restored = pickle.loads(pickle.dumps(payload))
        assert restored == payload
        assert [
            (r["ts"], r["type"], r["source"], r["data"])
            for r in restored.iter_records()
        ] == [
            (3.0, REQUEST_COMPLETE, "system", {"index": 1}),
            (4.0, POLICY_TRIGGER, "policy:sraa", {"level": 2, "ok": True}),
        ]


def _emit_tuples(n):
    """``n`` varied emit tuples: every payload tag, and dictionary
    values that first show up in later chunks."""
    out = []
    for index in range(n):
        data = {"index": index, "response_time": index / 8.0}
        if index % 7 == 0:
            data["policy"] = f"p{index % 5000}"
        if index % 11 == 0:
            data.update(ok=bool(index % 2), none=None, path=[index, "x"])
        source = f"src{index // 3000}"
        out.append((index * 0.5, f"type.{index % 13}", source, data))
    return out


class TestTracerChunks:
    """A tracer encodes a chunk of emits at a time; the trace it hands
    back is the one encoding every emit at once gives."""

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 3 * 4096 + 17])
    def test_payload_equals_encode_events(self, n):
        tuples = _emit_tuples(n)
        tracer = Tracer("all")
        for ts, etype, source, data in tuples:
            tracer.emit(ts, etype, source, **data)
        assert len(tracer) == n
        payload = tracer.payload()
        expected = encode_events(_emit_tuples(n))
        for name in ColumnarTrace._STORED:
            got, want = getattr(payload, name), getattr(expected, name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), name
            else:
                assert got == want, name

    def test_payload_hands_the_events_over(self):
        tracer = Tracer("all")
        for ts, etype, source, data in _emit_tuples(5000):
            tracer.emit(ts, etype, source, **data)
        assert len(tracer.payload()) == 5000
        assert len(tracer) == 0
        tracer.emit(1.0, REQUEST_COMPLETE, "system", index=1)
        (record,) = tracer.payload().iter_records()
        assert record["data"] == {"index": 1}
