"""Lossless columnar encoding: every record decodes back byte-for-byte.

The store's whole contract is that ``encode -> decode -> compact JSON``
reproduces the exact line a JSONL trace writer would have produced:
key order, int/float/bool/null distinctions, nested payloads, and
records that match no known envelope (carried as opaque fragments).
"""

import json
import pickle

import numpy as np
import pytest

from repro.core.spec import PolicySpec
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.jobs import ReplicationJob, execute_job
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


def _event(ts, data, etype="custom.x", source="s", run=0):
    return {"ts": ts, "type": etype, "source": source, "data": data, "run": run}


def _meta(seed, data=None, run=0):
    return {
        "run": run,
        "tag": ["faults", "50%", seed is None, 1.5],
        "seed": seed,
        "ts": 0.0,
        "type": "run.meta",
        "source": "session",
        "data": {} if data is None else data,
    }


#: Records whose JSON text is easy to get wrong when written from
#: columns: non-finite and extreme floats, ``%`` where a ``%``-template
#: could see it, every kind of seed, an empty payload, opaque lines.
WRITER_RECORDS = TRICKY_RECORDS + [
    _event(float("nan"), {"x": float("nan")}),
    _event(float("inf"), {"x": float("inf"), "y": float("-inf")}),
    _event(float("-inf"), {"x": 1.0, "y": float("nan")}),
    _event(-0.0, {"zero": -0.0, "tiny": 5e-324, "huge": 1.5e308}),
    _event(1e16, {"sci": 1e-7, "third": 1 / 3}),
    _event(2.0, {"100%": "50%s", "%(key)s": "%d %%", 'q"%': "\\%"},
           source="src%s"),
    _event(3.0, {}, etype="empty%payload"),
    _event(4.0, {"s": "", "u": "☃\x00\n", "b": False, "n": None}),
    _meta(7),
    _meta("seed%s", {"arrivals": 3}),
    _meta(None),
    _meta(2.5, {"avg": float("nan")}),
    _meta(2**70),
    _meta(True),
    {"run": 5, "dump": "flight%s", "nan": float("nan"), "nested": {"a": []}},
    {"ts": 1, "type": "int.ts", "source": "s", "data": {}, "run": 0},
]


def _assert_writer_matches(trace, expected_lines):
    lines = list(trace.to_jsonl_lines())
    assert lines == [compact_json(r) for r in trace.iter_records()]
    assert lines == expected_lines


class TestRoundTrip:
    def test_tricky_records_round_trip_byte_identical(self):
        trace = ColumnarTrace.from_records(TRICKY_RECORDS)
        assert len(trace) == len(TRICKY_RECORDS)
        for index, record in enumerate(TRICKY_RECORDS):
            assert trace.decode(index) == record
            assert compact_json(trace.decode(index)) == _line(record)

    def test_to_jsonl_lines_matches_json_dumps(self):
        trace = ColumnarTrace.from_records(WRITER_RECORDS)
        _assert_writer_matches(trace, [_line(r) for r in WRITER_RECORDS])

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
        trace = encode_events(events, run=3)
        assert [r["run"] for r in trace.iter_records()] == [3, 3]

    def test_with_run_rewrites_the_run_column(self):
        trace = encode_events([(0.5, "system.gc", "system", {})], run=0)
        assert trace.with_run(9).decode(0)["run"] == 9
        assert trace.decode(0)["run"] == 0

    def test_encoders_return_the_merged_segment(self):
        # An encoded trace is one segment whose row is the one a merge
        # of it alone computes.
        for trace in (
            encode_records(TRICKY_RECORDS),
            encode_events([(2.0, "b", "s", {}), (1.0, "a", "s", {})]),
            encode_events([]),
        ):
            merged = ColumnarTrace.from_batches([trace])
            assert len(trace.segments) == 1
            assert trace.segments == merged.segments
            assert trace == merged

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
        merged = merge_batches_sorted([a, b])
        assert [r["type"] for r in merged.iter_records()] == [
            "tie.a",
            "tie.b",
        ]
        merged = merge_batches_sorted([b, a])
        assert [r["type"] for r in merged.iter_records()] == [
            "tie.b",
            "tie.a",
        ]

    def test_merge_batches_sorted_orders_by_ts(self):
        a = encode_events(
            [(3.0, "x.a", "s", {}), (9.0, "x.b", "s", {})], run=0
        )
        b = encode_events([(1.0, "x.c", "s", {})], run=0)
        merged = merge_batches_sorted([a, b])
        assert [r["ts"] for r in merged.iter_records()] == [1.0, 3.0, 9.0]
        assert merged.segments == [(0, 3, 1.0, 9.0, 0b111)]


class TestPickle:
    def test_traced_run_result_round_trips(self):
        run = execute_job(
            ReplicationJob(
                config=PAPER_CONFIG,
                arrival=ArrivalSpec.poisson(
                    PAPER_CONFIG.arrival_rate_for_load(0.5)
                ),
                policy=PolicySpec.sraa(2, 5, 3),
                n_transactions=200,
                seed=11,
                trace_level="all",
            )
        )
        trace = run.trace
        assert len(trace) > 0
        trace.shape_table  # fill the cache, which must not be pickled
        assert set(trace.__getstate__()) == {
            "run", "ts", "type_id", "source_id", "shape_id",
            "ints_off", "floats_off", "strs_off", "jsons_off",
            "ints", "floats", "strs", "jsons",
            "types", "sources", "strings", "fragments", "shapes",
            "segments",
        }
        blob = pickle.dumps(run)
        assert b"ShapeTable" not in blob
        restored = pickle.loads(blob)
        assert restored.trace._shape_table is None
        assert restored.trace.segments == trace.segments
        assert restored == run


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

    def test_runs_past_int64_round_trip(self):
        # The run column is int64: a larger run is kept in the record's
        # fragment, in a meta envelope as in any other.
        big = [
            dict(_meta(3), run=2**70),
            {"run": -(2**70), "dump": "flight"},
        ]
        trace = ColumnarTrace.from_records(big)
        assert [_line(r) for r in trace.iter_records()] == [
            _line(r) for r in big
        ]
        assert trace.run.tolist() == [0, 0]


class TestJsonlWriter:
    """``to_jsonl_lines`` writes from the columns the exact bytes of
    ``compact_json`` over the decoded records."""

    def test_non_str_payload_keys_from_encode_events(self):
        events = [
            (1.0, "custom.keys", "s", {1: 0.5, 2.5: "x", -3: True}),
            (2.0, "custom.keys", "s", {1: 0.25, 2.5: "y", -3: False}),
        ]
        trace = ColumnarTrace.from_batches([encode_events(events, run=4)])
        _assert_writer_matches(
            trace,
            [
                _line({"ts": ts, "type": etype, "source": source,
                       "data": data, "run": 4})
                for ts, etype, source, data in events
            ],
        )

    def test_keys_that_collide_as_json_keep_the_dict_rule(self):
        # 1 and "1" are one JSON key: the decoded dict keeps the first
        # position and the last value, and the writer must agree.
        events = [(1.0, "custom.dup", "s", {1: 0.5, "x": 2, "1": "last"})]
        trace = ColumnarTrace.from_batches([encode_events(events)])
        _assert_writer_matches(
            trace, ['{"ts":1.0,"type":"custom.dup","source":"s",'
                    '"data":{"1":"last","x":2},"run":0}']
        )

    def test_bool_and_none_keys_read_back_as_json_writes_them(
        self, tmp_path
    ):
        from repro.obs.columnar.io import (
            read_columnar,
            read_trace,
            write_columnar,
        )
        from repro.obs.exporters import write_jsonl_lines

        record = _event(1.0, {True: 1, None: 2, 3: 4, False: 0.5})
        expected = [json.loads(compact_json(record))]
        trace = ColumnarTrace.from_records([record])
        rcol, jsonl = tmp_path / "t.rcol", tmp_path / "t.jsonl"
        write_columnar(trace, str(rcol))
        write_jsonl_lines(str(jsonl), trace.to_jsonl_lines())
        assert list(read_columnar(str(rcol)).iter_records()) == expected
        assert list(read_trace(str(jsonl)).iter_records()) == expected

    def test_equal_non_str_keys_keep_their_own_json_keys(self):
        # True == 1 == 1.0 (one hash), but json writes three keys.
        records = [_event(1.0, {key: 5}) for key in (True, 1, 1.0)]
        trace = ColumnarTrace.from_records(records)
        assert [r["data"] for r in trace.iter_records()] == [
            {"true": 5},
            {"1": 5},
            {"1.0": 5},
        ]
        _assert_writer_matches(trace, [_line(r) for r in records])

    def test_fragments_are_normalised_like_the_decoder(self):
        # A fragment with a non-str key re-encodes from its parsed form.
        records = [_event(1.0, {"payload": {1: "a", "1": "b"}})]
        trace = ColumnarTrace.from_records(records)
        _assert_writer_matches(
            trace, ['{"ts":1.0,"type":"custom.x","source":"s",'
                    '"data":{"payload":{"1":"b"}},"run":0}']
        )

    def test_multi_chunk_mixed_shapes_keep_row_order(self):
        from repro.obs.columnar.store import _DECODE_CHUNK

        rng = np.random.default_rng(23)
        records = []
        for index in range(3 * _DECODE_CHUNK + 17):
            pick = WRITER_RECORDS[int(rng.integers(len(WRITER_RECORDS)))]
            record = json.loads(_line(pick))
            if "data" in record and isinstance(record["data"], dict):
                record["data"] = dict(record["data"], row=index)
            records.append(record)
        trace = ColumnarTrace.from_batches(
            [encode_records(records[:5000]), encode_records(records[5000:])]
        )
        assert len(trace) > 3 * _DECODE_CHUNK
        _assert_writer_matches(trace, [_line(r) for r in records])
