"""`repro trace convert` and format parity across the consumers.

A real (small) traced simulation is converted JSONL -> columnar ->
JSONL; the final JSONL must be byte-identical to the original, and
report / explain / faults-score must produce identical output no
matter which format they read.
"""

import gzip
import time

import pytest

from repro.cli import main
from repro.obs.columnar.convert import convert_trace, infer_output_format
from repro.obs.columnar.io import sniff_format

SIMULATE = [
    "simulate",
    "--policy", "sraa",
    "-p", "n=2", "-p", "K=5", "-p", "D=3",
    "--load", "9",
    "--transactions", "2000",
    "--seed", "3",
]


@pytest.fixture(scope="module")
def jsonl_trace(tmp_path_factory):
    """One traced simulation, written as JSONL."""
    path = str(tmp_path_factory.mktemp("trace") / "run.jsonl")
    assert main(SIMULATE + ["--trace", path]) == 0
    return path


class TestConvertCli:
    def test_round_trip_is_byte_identical(self, jsonl_trace, tmp_path, capsys):
        rcol = str(tmp_path / "run.rcol")
        back = str(tmp_path / "back.jsonl")
        assert main(["trace", "convert", jsonl_trace, rcol]) == 0
        assert "jsonl -> columnar" in capsys.readouterr().out
        assert main(["trace", "convert", rcol, back]) == 0
        assert "columnar -> jsonl" in capsys.readouterr().out
        with open(jsonl_trace, "rb") as a, open(back, "rb") as b:
            assert a.read() == b.read()

    def test_gzip_round_trip(self, jsonl_trace, tmp_path):
        rcol_gz = str(tmp_path / "run.rcol.gz")
        back_gz = str(tmp_path / "back.jsonl.gz")
        assert main(["trace", "convert", jsonl_trace, rcol_gz]) == 0
        assert sniff_format(rcol_gz) == "columnar"
        assert main(["trace", "convert", rcol_gz, back_gz]) == 0
        with open(jsonl_trace, "rb") as a, gzip.open(back_gz, "rb") as b:
            assert a.read() == b.read()

    def test_gzip_output_does_not_depend_on_the_clock(
        self, jsonl_trace, tmp_path, monkeypatch
    ):
        rcol = str(tmp_path / "run.rcol")
        convert_trace(jsonl_trace, rcol)
        written = []
        for now in (1_000_000_000.0, 2_000_000_000.0):
            monkeypatch.setattr(time, "time", lambda: now)
            out = tmp_path / str(now) / "x.jsonl.gz"
            out.parent.mkdir()
            convert_trace(rcol, str(out))
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_missing_input_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit, match="no such trace file"):
            main(
                [
                    "trace",
                    "convert",
                    str(tmp_path / "nope.jsonl"),
                    str(tmp_path / "out.rcol"),
                ]
            )

    def test_to_flag_overrides_extension(self, jsonl_trace, tmp_path):
        # Force columnar output despite a .bin extension.
        out = str(tmp_path / "run.bin")
        assert main(
            ["trace", "convert", jsonl_trace, out, "--to", "columnar"]
        ) == 0
        assert sniff_format(out) == "columnar"


class TestInferOutputFormat:
    @pytest.mark.parametrize(
        "out_path,in_format,expected",
        [
            ("t.rcol", "jsonl", "columnar"),
            ("t.rcol.gz", "jsonl", "columnar"),
            ("t.jsonl", "columnar", "jsonl"),
            ("t.jsonl.gz", "columnar", "jsonl"),
            # No recognisable extension: convert to the other format.
            ("t.out", "jsonl", "columnar"),
            ("t.out", "columnar", "jsonl"),
        ],
    )
    def test_inference(self, out_path, in_format, expected):
        assert infer_output_format(out_path, in_format) == expected


class TestConsumerParity:
    @pytest.fixture(scope="class")
    def both_formats(self, jsonl_trace, tmp_path_factory):
        rcol = str(tmp_path_factory.mktemp("conv") / "run.rcol")
        in_format, out_format, count = convert_trace(jsonl_trace, rcol)
        assert (in_format, out_format) == ("jsonl", "columnar")
        assert count > 0
        return jsonl_trace, rcol

    def test_explain_identical(self, both_formats, capsys):
        jsonl, rcol = both_formats
        assert main(["explain", jsonl]) == 0
        from_jsonl = capsys.readouterr().out
        assert main(["explain", rcol]) == 0
        from_rcol = capsys.readouterr().out
        assert from_jsonl == from_rcol
        assert "trigger #1" in from_jsonl

    def test_report_identical(self, both_formats, tmp_path):
        from repro.obs.live.report import write_report

        jsonl, rcol = both_formats
        a = str(tmp_path / "a.html")
        b = str(tmp_path / "b.html")
        write_report(jsonl, a)
        write_report(rcol, b)
        # The report embeds its input path in the title/header; strip
        # that one intentional difference, then demand byte identity.
        with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
            html_a = fa.read().replace(jsonl, "TRACE")
            html_b = fb.read().replace(rcol, "TRACE")
        assert html_a == html_b

    def test_score_trace_identical(self, tmp_path):
        from repro.faults.campaign import score_trace

        jsonl = str(tmp_path / "campaign.jsonl")
        assert (
            main(
                [
                    "faults", "run", "aging_onset",
                    "--policies", "SRAA",
                    "--replications", "1",
                    "--seed", "5",
                    "--backend", "serial",
                    "--trace", jsonl,
                    "--trace-level", "all",
                ]
            )
            == 0
        )
        rcol = str(tmp_path / "campaign.rcol")
        convert_trace(jsonl, rcol)
        assert score_trace(jsonl) == score_trace(rcol)
