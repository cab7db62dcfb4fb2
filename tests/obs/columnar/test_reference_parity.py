"""The trace encoder and the JSONL reader against kept references.

``_BatchBuilder.add_events`` encodes every event in one loop that tags
``float``, in-range ``int`` and ``str`` values inline, and
``iter_jsonl`` parses a writer's line with the C scanner alone.  The
straightforward per-record code they replaced is kept here as the
reference: the encoders must agree on every stored column of the
encoded trace, dtype and segment index included, and the readers on
every record and every error message.
"""

import gzip
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.columnar.store import (
    _EVENT_KEYS,
    _I64_MAX,
    _I64_MIN,
    _META_KEYS,
    ENV_EVENT,
    ENV_META,
    ENV_OPAQUE,
    TAG_BOOL,
    TAG_FLOAT,
    TAG_INT,
    TAG_JSON,
    TAG_STR,
    ColumnarTrace,
    _BatchBuilder,
    _tag_of,
    encode_events,
    encode_records,
)
from repro.obs.columnar.synth import synth_campaign_trace
from repro.obs.events import compact_json
from repro.obs.exporters import iter_jsonl, open_text
from tests.obs.columnar.test_store import TRICKY_RECORDS, WRITER_RECORDS

# ---------------------------------------------------------------------------
# The reference encoder: one method call per record, one per payload
# ---------------------------------------------------------------------------
_EXACT_TAGS = {float: TAG_FLOAT, str: TAG_STR, bool: TAG_BOOL}


class _ReferenceBuilder(_BatchBuilder):
    def _payload(self, data):
        fields = []
        for key, value in data.items():
            tag = _EXACT_TAGS.get(type(value)) or _tag_of(value)
            fields.append((key, tag))
            if tag == TAG_FLOAT:
                self.floats.append(value)
            elif tag == TAG_INT:
                self.ints.append(value)
            elif tag == TAG_STR:
                self.strs.append(self.strings.id_of(value))
            elif tag == TAG_BOOL:
                self.ints.append(1 if value else 0)
            elif tag == TAG_JSON:
                self.jsons.append(self.fragments.id_of(compact_json(value)))
        return tuple(fields)

    def add_event(self, run, ts, etype, source, data):
        self._begin(run, ts, etype, source)
        fields = self._payload(data)
        self.shape_id.append(self.shapes.id_of((ENV_EVENT, fields)))

    def add_meta(self, record):
        self._begin(
            record["run"], record["ts"], record["type"], record["source"]
        )
        self.jsons.append(
            self.fragments.id_of(compact_json(record["tag"]))
        )
        seed = record["seed"]
        seed_tag = _tag_of(seed)
        if seed_tag == TAG_INT:
            self.ints.append(seed)
        elif seed_tag == TAG_FLOAT:
            self.floats.append(seed)
        elif seed_tag == TAG_STR:
            self.strs.append(self.strings.id_of(seed))
        elif seed_tag == TAG_BOOL:
            self.ints.append(1 if seed else 0)
        elif seed_tag == TAG_JSON:
            self.jsons.append(self.fragments.id_of(compact_json(seed)))
        fields = (("__tag", TAG_JSON), ("__seed", seed_tag))
        fields += self._payload(record["data"])
        self.shape_id.append(self.shapes.id_of((ENV_META, fields)))


def _classify(record):
    keys = tuple(record)
    if keys == _EVENT_KEYS:
        ts, etype, source, data, run = (
            record["ts"],
            record["type"],
            record["source"],
            record["data"],
            record["run"],
        )
        if (
            type(ts) is float
            and isinstance(etype, str)
            and isinstance(source, str)
            and isinstance(data, dict)
            and type(run) is int
            and _I64_MIN <= run <= _I64_MAX
        ):
            return ENV_EVENT
    elif keys == _META_KEYS:
        if (
            type(record["run"]) is int
            and isinstance(record["tag"], list)
            and type(record["ts"]) is float
            and isinstance(record["type"], str)
            and isinstance(record["source"], str)
            and isinstance(record["data"], dict)
        ):
            return ENV_META
    return ENV_OPAQUE


def reference_encode_records(records):
    builder = _ReferenceBuilder()
    for record in records:
        kind = _classify(record)
        if kind == ENV_EVENT:
            builder.add_event(
                record["run"],
                record["ts"],
                record["type"],
                record["source"],
                record["data"],
            )
        elif kind == ENV_META:
            builder.add_meta(record)
        else:
            builder.add_opaque(record)
    return builder.finish()


def reference_encode_events(events, run=0):
    builder = _ReferenceBuilder()
    for ts, etype, source, data in events:
        builder.add_event(run, ts, etype, source, data)
    return builder.finish()


def assert_same_trace(got, want):
    for name in ColumnarTrace._STORED:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        elif name == "segments":
            # By repr: exact values and types, and a NaN ts_min (from a
            # NaN timestamp) equals itself.
            assert repr(a) == repr(b), name
        else:
            assert a == b, name
            assert [type(v) for v in a] == [type(v) for v in b], name


def as_events(records):
    """The emit tuples of the event-envelope records."""
    return [
        (r["ts"], r["type"], r["source"], r["data"])
        for r in records
        if tuple(r) == _EVENT_KEYS
    ]


# ---------------------------------------------------------------------------
# Encoder parity
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def campaign_records():
    """~12k records over 4 runs: more than one encoder flush."""
    return synth_campaign_trace(
        runs=4,
        events_per_run=3000,
        scenarios=("aging_onset", "leak"),
        false_alarms_per_run=2,
    ).records()


@pytest.mark.parametrize(
    "records", [TRICKY_RECORDS, WRITER_RECORDS], ids=["tricky", "writer"]
)
def test_encode_records_matches_reference(records):
    assert_same_trace(
        encode_records(records), reference_encode_records(records)
    )


@pytest.mark.parametrize(
    "records", [TRICKY_RECORDS, WRITER_RECORDS], ids=["tricky", "writer"]
)
def test_encode_events_matches_reference(records):
    events = as_events(records)
    assert events
    assert_same_trace(
        encode_events(events, run=3), reference_encode_events(events, 3)
    )


def test_campaign_matches_reference(campaign_records):
    assert_same_trace(
        encode_records(campaign_records),
        reference_encode_records(campaign_records),
    )
    events = as_events(campaign_records)
    assert_same_trace(encode_events(events), reference_encode_events(events))


class _Float(float):
    pass


class _Str(str):
    pass


_SCALARS = st.one_of(
    st.sampled_from(
        [
            _I64_MIN - 1,
            _I64_MIN,
            _I64_MIN + 1,
            _I64_MAX - 1,
            _I64_MAX,
            _I64_MAX + 1,
            -0.0,
            float("nan"),
            float("inf"),
            float("-inf"),
            True,
            False,
            None,
        ]
    ),
    st.integers(),
    st.floats(),
    st.floats(allow_nan=False).map(_Float),
    st.text(max_size=4),
    st.text(max_size=4).map(_Str),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)
_KEYS = st.one_of(st.text(max_size=4), st.sampled_from([True, 1, 1.0, None]))
_PAYLOADS = st.dictionaries(_KEYS, _VALUES, max_size=5)
_EVENTS = st.lists(
    st.tuples(
        st.floats(),
        st.sampled_from(["request.complete", "policy.trigger", "x"]),
        st.sampled_from(["system", "policy:sraa"]),
        _PAYLOADS,
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(events=_EVENTS, run=st.integers(0, 50))
def test_encode_events_property(events, run):
    assert_same_trace(
        encode_events(events, run), reference_encode_events(events, run)
    )


@settings(max_examples=200, deadline=None)
@given(
    events=_EVENTS,
    seeds=st.lists(_SCALARS, max_size=3),
    run=st.integers(_I64_MIN, _I64_MAX),
)
def test_encode_records_property(events, seeds, run):
    records = [
        {"ts": ts, "type": etype, "source": source, "data": data, "run": run}
        for ts, etype, source, data in events
    ]
    for index, seed in enumerate(seeds):  # meta records between events
        records.insert(
            index * 2,
            {
                "run": run,
                "tag": ["faults", index],
                "seed": seed,
                "ts": 0.0,
                "type": "run.meta",
                "source": "session",
                "data": events[0][3] if events else {},
            },
        )
    records.append({"ts": 1, "type": "int.ts", "source": "s", "data": {}})
    assert_same_trace(
        encode_records(records), reference_encode_records(records)
    )


# ---------------------------------------------------------------------------
# Reader parity
# ---------------------------------------------------------------------------
def reference_iter_jsonl(path):
    with open_text(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: not valid JSONL ({exc})"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{line_no}: expected a JSON object, got "
                    f"{type(record).__name__}"
                )
            yield record


def outcome(reader, path):
    """The records a reader yields, as JSON text, up to its error."""
    records = []
    try:
        for record in reader(path):
            records.append(compact_json(record))
    except ValueError as error:
        return records, str(error)
    return records, None


#: File texts covering every kind of line the fast path must hand over.
LINES = {
    "writer": '{"a":1,"b":[1.5,{"c":null}]}\n{"d":"x\\ny"}\n',
    "crlf": '{"a":1}\r\n{"b":2}\r\n',
    "lone-cr": '{"a":1}\r{"b":2}\r',
    "leading-space": '  {"a":1}\n\t{"b":2}\n',
    "trailing-space": '{"a":1}  \n{"b":2}\t\n',
    "unicode-space": '{"a":1}\x1c\n{"b":2} \n',
    "bom-first": '\ufeff{"a":1}\n',
    "bom-later": '{"a":1}\n\ufeff{"b":2}\n',
    "no-final-newline": '{"a":1}\n{"b":2}',
    "blank-lines": '\n\n{"a":1}\n   \n\r\n{"b":2}\n\n',
    "non-finite": '{"x":NaN,"y":Infinity,"z":-Infinity}\n',
    "duplicate-keys": '{"a":1,"a":2}\n',
    "big-int": '{"a":123456789012345678901234567890}\n',
    "array": '{"a":1}\n[1,2]\n',
    "string": '"s"\n',
    "number": "3\n",
    "null": "null\n",
    "missing-value": '{"a":1}\n{"a":}\n',
    "extra-data": '{"a":1}x\n',
    "two-objects": '{"a":1}{"b":2}\n',
    "unclosed": '{"a":1\n',
    "open-brace": "{\n",
    "control-char": '{"a":"\x01"}\n',
    "empty-file": "",
}


@pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
@pytest.mark.parametrize("text", list(LINES.values()), ids=list(LINES))
def test_reader_matches_reference(tmp_path, text, suffix):
    path = str(tmp_path / f"t{suffix}")
    raw = text.encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(gzip.compress(raw) if suffix.endswith(".gz") else raw)
    assert outcome(iter_jsonl, path) == outcome(reference_iter_jsonl, path)
