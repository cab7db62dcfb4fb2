"""On-disk ``.rcol`` segments: write/read, gzip, sniffing, corruption."""

import gzip
import json

import pytest

from repro.obs.columnar.io import (
    FORMAT_VERSION,
    MAGIC,
    read_columnar,
    read_footer,
    sniff_format,
    write_columnar,
)
from repro.obs.columnar.store import ColumnarTrace
from repro.obs.events import compact_json

RECORDS = [
    {
        "run": 0,
        "tag": ["faults", "aging_onset", "SRAA", 0],
        "seed": 1,
        "ts": 0.0,
        "type": "run.meta",
        "source": "session",
        "data": {"arrivals": 2},
    },
    {
        "ts": 1.0,
        "type": "request.complete",
        "source": "system",
        "data": {"response_time": 0.25},
        "run": 0,
    },
    {
        "ts": 2.0,
        "type": "system.rejuvenation",
        "source": "system",
        "data": {"cause": "policy", "downtime_s": 5.0},
        "run": 0,
    },
]


def _write(path, records):
    write_columnar(ColumnarTrace.from_records(records), str(path))


class TestWriteRead:
    def test_round_trip_plain(self, tmp_path):
        path = tmp_path / "t.rcol"
        _write(path, RECORDS)
        trace = read_columnar(str(path))
        assert list(trace.iter_records()) == RECORDS

    def test_round_trip_gzip(self, tmp_path):
        path = tmp_path / "t.rcol.gz"
        _write(path, RECORDS)
        with open(path, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"  # actually gzipped
        trace = read_columnar(str(path))
        assert list(trace.iter_records()) == RECORDS

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.rcol", tmp_path / "b.rcol"
        _write(a, RECORDS)
        _write(b, RECORDS)
        assert a.read_bytes() == b.read_bytes()

    def test_magic_leads_the_file(self, tmp_path):
        path = tmp_path / "t.rcol"
        _write(path, RECORDS)
        assert path.read_bytes().startswith(MAGIC)

    def test_empty_trace_round_trips(self, tmp_path):
        path = tmp_path / "empty.rcol"
        _write(path, [])
        trace = read_columnar(str(path))
        assert len(trace) == 0
        assert list(trace.iter_records()) == []


class TestSniff:
    def test_sniffs_columnar(self, tmp_path):
        path = tmp_path / "t.rcol"
        _write(path, RECORDS)
        assert sniff_format(str(path)) == "columnar"

    def test_sniffs_columnar_gz(self, tmp_path):
        path = tmp_path / "t.rcol.gz"
        _write(path, RECORDS)
        assert sniff_format(str(path)) == "columnar"

    def test_sniffs_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "".join(compact_json(r) + "\n" for r in RECORDS),
            encoding="utf-8",
        )
        assert sniff_format(str(path)) == "jsonl"

    def test_sniffs_jsonl_gz(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for record in RECORDS:
                handle.write(compact_json(record) + "\n")
        assert sniff_format(str(path)) == "jsonl"


class TestFooter:
    def test_footer_shape(self, tmp_path):
        path = tmp_path / "t.rcol"
        _write(path, RECORDS)
        footer = read_footer(str(path))
        assert footer["version"] == FORMAT_VERSION
        for key in ("arrays", "segments", "shapes", "strings", "types"):
            assert key in footer
        assert isinstance(footer["segments"], list)
        segment = footer["segments"][0]
        assert segment["rows"] == [0, len(RECORDS)]
        assert segment["ts_min"] == 0.0
        assert segment["ts_max"] == 2.0

    def test_footer_is_json(self, tmp_path):
        # read_footer must not need to decode the column arrays.
        path = tmp_path / "t.rcol"
        _write(path, RECORDS)
        footer = read_footer(str(path))
        json.dumps(footer)  # fully JSON-serialisable


class TestCorruption:
    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.rcol"
        path.write_bytes(b"NOTACOLF" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            read_columnar(str(path))

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "trunc.rcol"
        _write(path, RECORDS)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises((ValueError, EOFError, OSError)):
            read_columnar(str(path))
