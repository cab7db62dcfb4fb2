"""On-disk ``.rcol`` segments: write/read, gzip, sniffing, corruption."""

import gzip
import json
import re

import numpy as np
import pytest

from repro.obs.columnar.io import (
    FORMAT_VERSION,
    MAGIC,
    read_columnar,
    read_footer,
    read_trace,
    sniff_format,
    write_columnar,
)
from repro.obs.columnar.store import ColumnarTrace
from repro.obs.columnar.synth import synth_campaign_trace
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

    def test_gz_bytes_ignore_the_file_name(self, tmp_path):
        # gzip stores the file's basename in its header unless told not to.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a, b = tmp_path / "a" / "x.rcol.gz", tmp_path / "b" / "y.rcol.gz"
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

    @pytest.mark.parametrize(
        "reader", [read_columnar, read_trace, read_footer]
    )
    def test_truncated_gzip_names_the_file(self, tmp_path, reader):
        path = tmp_path / "cut.rcol.gz"
        _write(path, RECORDS)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            reader(str(path))

    @pytest.mark.parametrize(
        "reader", [read_columnar, read_trace, read_footer]
    )
    def test_non_gzip_file_names_the_file(self, tmp_path, reader):
        path = tmp_path / "plain.rcol.gz"
        _write(tmp_path / "plain.rcol", RECORDS)
        path.write_bytes((tmp_path / "plain.rcol").read_bytes())
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            reader(str(path))

    @pytest.mark.parametrize("reader", [read_columnar, read_footer])
    def test_three_byte_file_names_the_file(self, tmp_path, reader):
        path = tmp_path / "tiny.rcol"
        path.write_bytes(MAGIC[:3])
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            reader(str(path))

    @pytest.mark.parametrize("reader", [read_columnar, read_footer])
    def test_cut_gzip_trailer_names_the_file(self, tmp_path, reader):
        # A complete gzip stream whose trace lost its last bytes.
        path = tmp_path / "cut.rcol.gz"
        _write(tmp_path / "whole.rcol", RECORDS)
        path.write_bytes(
            gzip.compress((tmp_path / "whole.rcol").read_bytes()[:-4])
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            reader(str(path))

    def test_damaged_gzip_header_names_the_file(self, tmp_path):
        path = tmp_path / "bad.jsonl.gz"
        path.write_bytes(b"\x1f\x8b" + b"x" * 30)
        for reader in (sniff_format, read_trace):
            with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
                reader(str(path))


def _with_footer(path, edit):
    """Rewrite the footer of the ``.rcol`` file at ``path`` with
    ``edit(footer)``'s result, keeping valid magic and trailer."""
    data = path.read_bytes()
    footer_len = int.from_bytes(data[-16:-8], "little")
    body = data[: len(data) - 16 - footer_len]
    footer = json.loads(data[len(body) : len(data) - 16])
    encoded = json.dumps(edit(footer)).encode("utf-8")
    path.write_bytes(
        body + encoded + len(encoded).to_bytes(8, "little") + data[-8:]
    )


def _set_dtype(footer, dtype):
    footer["arrays"][1]["dtype"] = dtype
    return footer


class TestCorruptFooter:
    """A footer with valid magic and trailer but the wrong content is
    one ``ValueError`` naming the file, never a crash or a misread."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda footer: {"version": FORMAT_VERSION},
            lambda footer: [1, 2],
            lambda footer: _set_dtype(footer, "zz"),
            lambda footer: _set_dtype(footer, "<i8"),
            lambda footer: dict(footer, arrays=footer["arrays"][1:]),
            lambda footer: dict(footer, arrays={"ts": 1}),
            lambda footer: dict(footer, types="request.complete"),
            lambda footer: dict(footer, shapes=[["event"]]),
            lambda footer: dict(footer, shapes=[["event", [["k", "zz"]]]]),
            lambda footer: dict(footer, segments=[{"rows": [0]}]),
        ],
        ids=[
            "no-arrays-key",
            "not-an-object",
            "unknown-dtype",
            "wrong-dtype",
            "missing-array",
            "arrays-not-a-list",
            "types-not-a-list",
            "bad-shape",
            "unknown-tag",
            "bad-segment",
        ],
    )
    def test_rejected_with_one_message(self, tmp_path, edit):
        path = tmp_path / "t.rcol"
        _write(path, RECORDS)
        _with_footer(path, edit)
        with pytest.raises(ValueError) as error:
            read_columnar(str(path))
        assert str(error.value).startswith(
            f"{path}: corrupt columnar trace ("
        )

    def test_unedited_footer_still_reads(self, tmp_path):
        path = tmp_path / "t.rcol"
        _write(path, RECORDS)
        _with_footer(path, lambda footer: footer)
        assert list(read_columnar(str(path)).iter_records()) == RECORDS

    def test_cli_prints_one_line(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.rcol"
        _write(path, RECORDS)
        _with_footer(path, lambda footer: _set_dtype(footer, "zz"))
        with pytest.raises(SystemExit) as exit_info:
            main(["report", str(path), "-o", str(tmp_path / "r.html")])
        message = str(exit_info.value.code)
        assert message.startswith(f"{path}: corrupt columnar trace (")
        assert "\n" not in message


def _poke(path, name, index, value):
    """Overwrite value ``index`` of column ``name`` in the ``.rcol`` file
    at ``path``, leaving its footer as it is."""
    data = bytearray(path.read_bytes())
    footer_len = int.from_bytes(data[-16:-8], "little")
    footer = json.loads(bytes(data[len(data) - 16 - footer_len : -16]))
    (entry,) = [a for a in footer["arrays"] if a["name"] == name]
    assert index < entry["count"]
    dtype = np.dtype(entry["dtype"])
    at = entry["offset"] + index * dtype.itemsize
    data[at : at + dtype.itemsize] = np.asarray([value], dtype).tobytes()
    path.write_bytes(bytes(data))


@pytest.fixture(scope="module")
def campaign():
    """A small campaign trace; its runs are merged by timestamp, so its
    pool offsets interleave rather than run in order."""
    return synth_campaign_trace(
        runs=4,
        events_per_run=100,
        scenarios=("aging_onset", "leak"),
        false_alarms_per_run=2,
    )


class TestCorruptColumns:
    """Column values that point past their dictionary or pool are one
    ``ValueError`` naming the file, never an ``IndexError`` or a
    misread."""

    @pytest.mark.parametrize(
        "name, index, value",
        [
            ("type_id", 10, 999),
            ("source_id", 10, 999),
            ("shape_id", 10, 999),
            ("strs", 3, 99999),
            ("jsons", 3, 99999),
            ("floats_off", 10, 10**12),
            ("ints_off", 10, 2**64 - 1),  # would wrap if added first
            ("strs_off", 10, 10**6),
            ("jsons_off", 0, 4),  # the pool's end, and row 0 takes one
        ],
    )
    @pytest.mark.parametrize("suffix", [".rcol", ".rcol.gz"])
    def test_rejected_with_one_message(
        self, tmp_path, campaign, suffix, name, index, value
    ):
        plain = tmp_path / "t.rcol"
        write_columnar(campaign, str(plain))
        _poke(plain, name, index, value)
        path = tmp_path / f"t{suffix}"
        if suffix.endswith(".gz"):
            path.write_bytes(gzip.compress(plain.read_bytes()))
        with pytest.raises(ValueError) as error:
            read_columnar(str(path))
        assert str(error.value).startswith(
            f"{path}: corrupt columnar trace ({name} past the "
        )

    def test_row_columns_of_unequal_length(self, tmp_path):
        path = tmp_path / "t.rcol"
        _write(path, RECORDS)

        def shorten(footer):
            footer["arrays"][0]["count"] -= 1
            return footer

        _with_footer(path, shorten)
        with pytest.raises(ValueError, match="row columns differ"):
            read_columnar(str(path))

    def test_interleaved_offsets_still_read(self, tmp_path, campaign):
        offsets = campaign.floats_off.astype(np.int64)
        assert (np.diff(offsets) < 0).any()
        path = tmp_path / "t.rcol"
        write_columnar(campaign, str(path))
        assert read_columnar(str(path)).records() == campaign.records()

    def test_cli_prints_one_line(self, tmp_path, campaign):
        from repro.cli import main

        path = tmp_path / "t.rcol"
        write_columnar(campaign, str(path))
        _poke(path, "type_id", 10, 999)
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "convert", str(path), str(tmp_path / "t.jsonl")])
        message = str(exit_info.value.code)
        assert message == (
            f"{path}: corrupt columnar trace "
            "(type_id past the types dictionary)"
        )
