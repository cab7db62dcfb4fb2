"""Lossless columnar encoding: every record decodes back byte-for-byte.

The store's whole contract is that ``encode -> decode -> compact JSON``
reproduces the exact line a JSONL trace writer would have produced:
key order, int/float/bool/null distinctions, nested payloads, and
records that match no known envelope (carried as opaque fragments).
"""

import json

import numpy as np
import pytest

from repro.obs.columnar.store import (
    ColumnarTrace,
    encode_events,
    encode_records,
    merge_batches_sorted,
)
from repro.obs.events import compact_json


def _line(record):
    return json.dumps(record, separators=(",", ":"))


#: Records covering every tag the shape dictionary distinguishes.
TRICKY_RECORDS = [
    # The plain event envelope, float payload.
    {
        "ts": 1.5,
        "type": "request.complete",
        "source": "system",
        "data": {"response_time": 0.25},
        "run": 0,
    },
    # Same keys, different payload shape (int vs float vs bool vs null).
    {
        "ts": 2.0,
        "type": "policy.trigger",
        "source": "policy:sraa",
        "data": {"level": 3, "armed": True, "cause": None},
        "run": 0,
    },
    # bool False must not collapse into int 0.
    {
        "ts": 2.5,
        "type": "policy.trigger",
        "source": "policy:sraa",
        "data": {"level": 0, "armed": False, "cause": None},
        "run": 0,
    },
    # Nested payloads ride as JSON fragments.
    {
        "ts": 3.0,
        "type": "fault.injected",
        "source": "scenario",
        "data": {"kind": "aging", "phases": [1, 2, {"deep": "x"}]},
        "run": 1,
    },
    # Ints beyond int64 fall back to the fragment pool.
    {
        "ts": 4.0,
        "type": "custom.big",
        "source": "s",
        "data": {"huge": 2**70, "small": -(2**70)},
        "run": 1,
    },
    # The run.meta envelope.
    {
        "run": 1,
        "tag": ["faults", "aging_onset", "SRAA", 0],
        "seed": 7,
        "ts": 0.0,
        "type": "run.meta",
        "source": "session",
        "data": {"arrivals": 10, "avg_response_time": 1.25},
    },
    # A flight-recorder dump line: no type key, opaque envelope.
    {
        "run": 2,
        "reason": "slo_breach",
        "ts": 9.5,
        "events": [{"ts": 9.0, "type": "request.complete"}],
    },
    # Unicode strings and negative zero.
    {
        "ts": 5.0,
        "type": "custom.unicode",
        "source": "nöde-☃",
        "data": {"label": "café", "x": -0.0},
        "run": 2,
    },
]


class TestRoundTrip:
    def test_tricky_records_round_trip_byte_identical(self):
        trace = ColumnarTrace.from_records(TRICKY_RECORDS)
        assert len(trace) == len(TRICKY_RECORDS)
        for index, record in enumerate(TRICKY_RECORDS):
            assert trace.decode(index) == record
            assert compact_json(trace.decode(index)) == _line(record)

    def test_to_jsonl_lines_matches_json_dumps(self):
        trace = ColumnarTrace.from_records(TRICKY_RECORDS)
        lines = list(trace.to_jsonl_lines())
        assert lines == [_line(r) for r in TRICKY_RECORDS]

    def test_value_types_survive_exactly(self):
        trace = ColumnarTrace.from_records(TRICKY_RECORDS)
        decoded = trace.decode(1)["data"]
        assert decoded["level"] == 3 and type(decoded["level"]) is int
        assert decoded["armed"] is True
        assert decoded["cause"] is None
        decoded = trace.decode(2)["data"]
        assert decoded["armed"] is False
        big = trace.decode(4)["data"]
        assert big["huge"] == 2**70 and big["small"] == -(2**70)

    def test_key_order_is_preserved(self):
        record = {
            "ts": 1.0,
            "type": "custom.order",
            "source": "s",
            "data": {"zebra": 1, "apple": 2, "mango": 3},
            "run": 0,
        }
        trace = ColumnarTrace.from_records([record])
        assert list(trace.decode(0)["data"]) == ["zebra", "apple", "mango"]

    def test_shape_dictionary_is_shared(self):
        # 1000 events of one payload shape need exactly one shape entry.
        records = [
            {
                "ts": float(i),
                "type": "request.complete",
                "source": "system",
                "data": {"response_time": i * 0.01},
                "run": 0,
            }
            for i in range(1000)
        ]
        trace = ColumnarTrace.from_records(records)
        assert len(trace.shapes) == 1
        assert len(trace.types) == 1


class TestBatches:
    def test_encode_events_stamps_run(self):
        events = [
            (0.5, "request.complete", "system", {"response_time": 0.1}),
            (1.5, "system.gc", "system", {}),
        ]
        batch = encode_events(events, run=3)
        trace = ColumnarTrace.from_batches([batch])
        assert [r["run"] for r in trace.iter_records()] == [3, 3]

    def test_with_run_rewrites_the_run_column(self):
        batch = encode_events(
            [(0.5, "system.gc", "system", {})], run=0
        )
        trace = ColumnarTrace.from_batches([batch.with_run(9)])
        assert trace.decode(0)["run"] == 9

    def test_from_batches_remaps_dictionaries(self):
        # Two batches with conflicting local dictionary ids must merge
        # into one consistent global dictionary.
        a = encode_records(
            [
                {
                    "ts": 1.0,
                    "type": "alpha.one",
                    "source": "sa",
                    "data": {"k": "va"},
                    "run": 0,
                }
            ]
        )
        b = encode_records(
            [
                {
                    "ts": 2.0,
                    "type": "beta.two",
                    "source": "sb",
                    "data": {"k": "vb"},
                    "run": 1,
                }
            ]
        )
        trace = ColumnarTrace.from_batches([b, a])
        records = list(trace.iter_records())
        assert records[0]["type"] == "beta.two"
        assert records[1]["type"] == "alpha.one"
        assert records[0]["data"]["k"] == "vb"
        assert records[1]["data"]["k"] == "va"

    def test_merge_batches_sorted_is_stable_on_ties(self):
        # Equal timestamps must keep batch submission order -- the same
        # tie-break the dict path's stable sort applies.
        a = encode_events([(5.0, "tie.a", "s", {})], run=0)
        b = encode_events([(5.0, "tie.b", "s", {})], run=1)
        merged = ColumnarTrace.from_batches(
            [merge_batches_sorted([a, b])]
        )
        assert [r["type"] for r in merged.iter_records()] == [
            "tie.a",
            "tie.b",
        ]
        merged = ColumnarTrace.from_batches(
            [merge_batches_sorted([b, a])]
        )
        assert [r["type"] for r in merged.iter_records()] == [
            "tie.b",
            "tie.a",
        ]

    def test_merge_batches_sorted_orders_by_ts(self):
        a = encode_events(
            [(3.0, "x.a", "s", {}), (9.0, "x.b", "s", {})], run=0
        )
        b = encode_events([(1.0, "x.c", "s", {})], run=0)
        merged = ColumnarTrace.from_batches(
            [merge_batches_sorted([a, b])]
        )
        assert [r["ts"] for r in merged.iter_records()] == [1.0, 3.0, 9.0]


class TestColumns:
    def test_counts_by_type(self):
        trace = ColumnarTrace.from_records(TRICKY_RECORDS)
        counts = trace.counts_by_type()
        assert counts["policy.trigger"] == 2
        assert counts["request.complete"] == 1

    def test_field_float_gathers_floats_and_ints(self):
        records = [
            {
                "ts": 1.0,
                "type": "request.complete",
                "source": "s",
                "data": {"response_time": 0.5},
                "run": 0,
            },
            {
                "ts": 2.0,
                "type": "request.complete",
                "source": "s",
                "data": {"response_time": 2},  # int-valued
                "run": 0,
            },
            {
                "ts": 3.0,
                "type": "request.complete",
                "source": "s",
                "data": {},  # missing -- must be dropped
                "run": 0,
            },
        ]
        trace = ColumnarTrace.from_records(records)
        rows, values = trace.field_float(
            "response_time", np.arange(len(trace), dtype=np.int64)
        )
        assert list(rows) == [0, 1]
        assert values.dtype == np.float64
        assert list(values) == [0.5, 2.0]

    def test_segments_cover_all_rows(self):
        trace = ColumnarTrace.from_records(TRICKY_RECORDS)
        covered = sum(stop - start for start, stop, *_ in trace.segments)
        assert covered == len(trace)


class TestOpaqueFallback:
    def test_arbitrary_json_round_trips(self):
        weird = [
            {"totally": "unrelated"},
            {"list": [1, [2, [3]]], "n": None},
            {"ts": "not-a-number", "type": 12},
        ]
        trace = ColumnarTrace.from_records(weird)
        for index, record in enumerate(weird):
            assert trace.decode(index) == record
            assert compact_json(trace.decode(index)) == _line(record)
