"""Result persistence: JSON round-trip, CSV export, comparison."""

import json
import math

import pytest

from repro.experiments.io import (
    SCHEMA_VERSION,
    load_json,
    max_relative_difference,
    result_from_dict,
    result_to_dict,
    save_csv,
    save_json,
)
from repro.experiments.tables import ExperimentResult, Series, Table


def make_result(scale=1.0) -> ExperimentResult:
    table = Table(title="RT over load", x_label="load", y_label="rt")
    series = Series(label="A")
    series.add(1.0, 10.0 * scale)
    series.add(2.0, 20.0 * scale)
    table.add_series(series)
    other = Series(label="B")
    other.add(2.0, 5.0 * scale)
    table.add_series(other)
    table.notes.append("demo note")
    return ExperimentResult(
        experiment_id="demo",
        description="demo experiment",
        tables=[table],
        paper_expectations=["something holds"],
    )


class TestJsonRoundTrip:
    def test_dict_round_trip(self):
        original = make_result()
        restored = result_from_dict(result_to_dict(original))
        assert restored.experiment_id == original.experiment_id
        assert restored.description == original.description
        assert restored.paper_expectations == original.paper_expectations
        assert restored.tables[0].notes == ["demo note"]
        assert (
            restored.tables[0].get_series("A").points
            == original.tables[0].get_series("A").points
        )

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "result.json"
        save_json(make_result(), str(path))
        restored = load_json(str(path))
        assert restored.tables[0].get_series("B").value_at(2.0) == 5.0

    def test_schema_version_written(self, tmp_path):
        path = tmp_path / "result.json"
        save_json(make_result(), str(path))
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_unknown_schema_rejected(self):
        payload = result_to_dict(make_result())
        payload["schema_version"] = 999
        with pytest.raises(ValueError):
            result_from_dict(payload)

    def test_format_text_survives_round_trip(self):
        original = make_result()
        restored = result_from_dict(result_to_dict(original))
        assert restored.format_text() == original.format_text()


class TestGzipRoundTrip:
    def test_gz_suffix_writes_gzip(self, tmp_path):
        import gzip

        path = tmp_path / "result.json.gz"
        save_json(make_result(), str(path))
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_gz_file_round_trip(self, tmp_path):
        path = tmp_path / "result.json.gz"
        save_json(make_result(), str(path))
        restored = load_json(str(path))
        assert restored.format_text() == make_result().format_text()

    def test_gz_smaller_than_plain_for_large_results(self, tmp_path):
        result = make_result()
        series = result.tables[0].get_series("A")
        for i in range(2000):
            series.add(3.0 + i, 1.234567)
        plain, packed = tmp_path / "r.json", tmp_path / "r.json.gz"
        save_json(result, str(plain))
        save_json(result, str(packed))
        assert packed.stat().st_size < plain.stat().st_size

    def test_gz_bytes_ignore_the_clock(self, tmp_path, monkeypatch):
        import time

        written = []
        for stamp in (1_000_000_000.0, 1_500_000_000.0):
            monkeypatch.setattr(time, "time", lambda: stamp)
            path = tmp_path / str(int(stamp)) / "result.json.gz"
            path.parent.mkdir()
            save_json(make_result(), str(path))
            written.append(path.read_bytes())
        assert written[0] == written[1]

    def test_gz_bytes_ignore_the_file_name(self, tmp_path):
        written = []
        for name in ("a/x.json.gz", "b/y.json.gz"):
            path = tmp_path / name
            path.parent.mkdir()
            save_json(make_result(), str(path))
            written.append(path.read_bytes())
        assert written[0] == written[1]

    def test_plain_json_is_not_gzip(self, tmp_path):
        path = tmp_path / "result.json"
        save_json(make_result(), str(path))
        assert path.read_bytes()[:2] != b"\x1f\x8b"


class TestCanonicalResultHash:
    def test_hash_ignores_key_order(self):
        from repro.obs.ledger import canonical_hash

        payload = result_to_dict(make_result())
        shuffled = dict(reversed(list(payload.items())))
        assert canonical_hash(payload) == canonical_hash(shuffled)

    def test_hash_changes_with_content(self):
        from repro.obs.ledger import canonical_hash

        assert canonical_hash(result_to_dict(make_result(1.0))) != (
            canonical_hash(result_to_dict(make_result(1.1)))
        )

    def test_hash_stable_across_round_trip(self):
        from repro.obs.ledger import canonical_hash

        payload = result_to_dict(make_result())
        rebuilt = result_to_dict(result_from_dict(payload))
        assert canonical_hash(payload) == canonical_hash(rebuilt)


class TestCsvExport:
    def test_one_file_per_table(self, tmp_path):
        paths = save_csv(make_result(), str(tmp_path))
        assert len(paths) == 1
        assert paths[0].endswith(".csv")
        assert "demo_00" in paths[0]

    def test_contents(self, tmp_path):
        (path,) = save_csv(make_result(), str(tmp_path))
        with open(path) as handle:
            lines = handle.read().strip().splitlines()
        assert lines[0] == "load,A,B"
        row1 = lines[1].split(",")
        assert float(row1[0]) == 1.0
        assert float(row1[1]) == 10.0
        assert math.isnan(float(row1[2]))  # B has no point at load 1

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        save_csv(make_result(), str(target))
        assert target.exists()


class TestComparison:
    def test_identical_results(self):
        assert max_relative_difference(make_result(), make_result()) == 0.0

    def test_scaled_results(self):
        delta = max_relative_difference(make_result(1.0), make_result(1.1))
        assert delta == pytest.approx(0.1 / 1.1)

    def test_disjoint_results_compare_to_zero(self):
        a = make_result()
        b = ExperimentResult("other", "x", tables=[Table("t", "x", "y")])
        assert max_relative_difference(a, b) == 0.0


class TestCliIntegration:
    def test_run_with_json_and_csv(self, tmp_path, capsys):
        from repro.cli import main

        json_file = tmp_path / "out.json"
        csv_dir = tmp_path / "csv"
        code = main(
            [
                "run",
                "false_alarm",
                "--scale",
                "smoke",
                "--json",
                str(json_file),
                "--csv",
                str(csv_dir),
            ]
        )
        assert code == 0
        assert json_file.exists()
        restored = load_json(str(json_file))
        assert restored.experiment_id == "false_alarm"
        assert list(csv_dir.glob("*.csv"))
