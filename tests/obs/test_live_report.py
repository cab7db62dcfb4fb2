"""The HTML report renderer: self-containment and content."""

import re
from pathlib import Path

from repro.obs.live.report import render_report, write_report


def trace_records():
    """A tiny two-run trace with spans, decisions, faults and meta."""
    records = []
    for run in (0, 1):
        records.append(
            {
                "run": run,
                "tag": ["sraa", f"rep{run}"],
                "seed": run,
                "ts": 0.0,
                "type": "run.meta",
                "source": "session",
                "data": {
                    "arrivals": 120,
                    "completed": 100,
                    "lost": 5,
                    "avg_response_time": 6.5,
                    "gc_count": 2,
                    "rejuvenations": 1,
                    "sim_duration_s": 600.0,
                },
            }
        )
        for i in range(40):
            records.append(
                {
                    "run": run,
                    "ts": 15.0 * i,
                    "type": "request.complete",
                    "source": "system",
                    "data": {"response_time": 5.0 + 0.1 * i},
                }
            )
        records.append(
            {
                "run": run,
                "ts": 100.0,
                "type": "fault.injected",
                "source": "campaign",
                "data": {"kind": "surge"},
            }
        )
        records.append(
            {
                "run": run,
                "ts": 200.0,
                "type": "fault.cleared",
                "source": "campaign",
                "data": {"kind": "surge"},
            }
        )
        records.append(
            {
                "run": run,
                "ts": 250.0,
                "type": "policy.level",
                "source": "policy:sraa",
                "data": {"level": 2},
            }
        )
        records.append(
            {
                "run": run,
                "ts": 300.0,
                "type": "policy.trigger",
                "source": "policy:sraa",
                "data": {
                    "level": 2,
                    "batch_mean": 12.5,
                    "threshold": 10.0,
                    "sample_size": 40,
                },
            }
        )
        records.append(
            {
                "run": run,
                "ts": 301.0,
                "type": "system.rejuvenation",
                "source": "node0",
                "data": {"lost": 3},
            }
        )
    return records


class TestRenderReport:
    def test_document_structure(self):
        document = render_report(trace_records(), title="unit test")
        assert document.startswith("<!DOCTYPE html>")
        assert "<title>unit test</title>" in document
        assert "run 0" in document and "run 1" in document
        # The dashboard's four stories are all present.
        assert "response-time percentiles over time" in document
        assert "detector bucket level" in document
        assert "rejuvenation decisions" in document
        assert "fault: surge" in document

    def test_self_contained_no_external_fetches(self):
        # ISSUE acceptance: one file, no scripts, fonts or URLs.
        document = render_report(trace_records())
        assert "http://" not in document
        assert "https://" not in document
        assert "<script" not in document
        assert "<link" not in document
        assert "@import" not in document
        assert "url(" not in document

    def test_dark_mode_palette_embedded(self):
        document = render_report(trace_records())
        assert "prefers-color-scheme: dark" in document
        # Color follows the role: both modes restate every series var.
        for var in ("--p50", "--p95", "--level", "--fault", "--rejuv"):
            assert document.count(f"{var}:") == 2

    def test_charts_are_inline_svg(self):
        document = render_report(trace_records())
        assert document.count("<svg") >= 4  # rt + level chart per run
        assert "<polyline" in document
        # Hover tooltips ride on native <title> elements.
        assert "<title>" in document

    def test_data_table_backs_the_chart(self):
        # The contrast-warned orange series is also readable as text.
        document = render_report(trace_records())
        assert "data table" in document
        assert "<details>" in document

    def test_max_runs_folds_the_tail(self):
        document = render_report(trace_records(), max_runs=1)
        assert "run 0" in document
        assert "detail charts shown for the first 1 of 2 runs" in document

    def test_runs_without_spans_get_a_hint(self):
        records = [
            r for r in trace_records() if r["type"] != "request.complete"
        ]
        document = render_report(records)
        assert "--trace-level spans" in document

    def test_empty_trace_still_renders(self):
        document = render_report([])
        assert "<html" in document and "0 trace records" in document


class TestWriteReport:
    def test_round_trip_plain_and_gz(self, tmp_path):
        from repro.obs.exporters import write_jsonl

        records = trace_records()
        for name in ("trace.jsonl", "trace.jsonl.gz"):
            trace = str(tmp_path / name)
            write_jsonl(trace, records)
            out = str(tmp_path / (name + ".html"))
            count = write_report(trace, out)
            assert count == len(records)
            document = Path(out).read_text(encoding="utf-8")
            assert "<!DOCTYPE html>" in document
            assert "run 0" in document

    def test_title_defaults_to_trace_path(self, tmp_path):
        from repro.obs.exporters import write_jsonl

        trace = str(tmp_path / "t.jsonl")
        write_jsonl(trace, trace_records())
        out = str(tmp_path / "t.html")
        write_report(trace, out)
        content = Path(out).read_text(encoding="utf-8")
        assert re.search(r"<title>.*t\.jsonl</title>", content)


class TestFormatParity:
    def test_records_jsonl_and_rcol_render_identically(self, tmp_path):
        from repro.obs.columnar.convert import convert_trace
        from repro.obs.columnar.query import as_query, load_query
        from repro.obs.exporters import write_jsonl

        records = trace_records()
        jsonl = str(tmp_path / "t.jsonl")
        rcol = str(tmp_path / "t.rcol")
        write_jsonl(jsonl, records)
        convert_trace(jsonl, rcol)
        queries = [as_query(records), load_query(jsonl), load_query(rcol)]
        for query in queries:
            assert [
                len(view.completions()[1]) for view in query.run_views()
            ] == [40, 40]
        documents = [render_report(records, title="t")] + [
            render_report(query, title="t") for query in queries[1:]
        ]
        assert documents[0].count("<svg") == 4
        assert documents[1] == documents[0]
        assert documents[2] == documents[0]


class TestDecisionCauses:
    def generic_trigger(self):
        return {
            "run": 0,
            "ts": 400.0,
            "type": "policy.trigger",
            "source": "policy:entropy",
            "data": {
                "kind": "entropy-shift",
                "entropy": 0.4,
                "reference": 1.8,
                "deviation": -1.4,
                "streak": 16,
            },
        }

    def test_classic_cause_keeps_numeric_columns(self):
        document = render_report(trace_records())
        assert "<td>12.500</td>" in document
        assert "<td>10.000</td>" in document

    def test_generic_cause_rendered_without_fake_numbers(self):
        records = trace_records() + [self.generic_trigger()]
        document = render_report(records)
        assert "entropy-shift" in document
        assert "deviation=-1.400" in document
        # The batch-mean/threshold cells must show a dash, not 0.000.
        row = document.split("policy:entropy")[1].split("</tr>")[0]
        assert row.count("&mdash;") == 4
        assert "0.000" not in row


class TestRobustnessSection:
    def campaign_records(self):
        records = []
        for run, policy in enumerate(["SRAA", "ADAPTIVE"]):
            records.append(
                {
                    "run": run,
                    "tag": ["faults", "aging_onset", policy, 0],
                    "seed": run,
                    "ts": 0.0,
                    "type": "run.meta",
                    "data": {
                        "arrivals": 100,
                        "completed": 90,
                        "lost": 10,
                        "avg_response_time": 6.0,
                        "loss_fraction": 0.1,
                        "gc_count": 0,
                        "rejuvenations": 1,
                        "sim_duration_s": 3600.0,
                    },
                }
            )
            records.append(
                {
                    "run": run,
                    "ts": 10.0,
                    "type": "request.complete",
                    "data": {"response_time": 6.0},
                }
            )
            records.append(
                {
                    "run": run,
                    "ts": 1000.0,
                    "type": "fault.injected",
                    "data": {"kind": "slowdown"},
                }
            )
            records.append(
                {
                    "run": run,
                    "ts": 1100.0 + run * 50.0,
                    "type": "system.rejuvenation",
                    "data": {},
                }
            )
        return records

    def test_campaign_trace_gets_a_robustness_table(self):
        document = render_report(self.campaign_records())
        assert "campaign robustness" in document
        assert "<td>aging_onset</td>" in document
        assert "<td>ADAPTIVE</td>" in document
        assert "FA/healthy h" in document

    def test_scores_match_the_campaign_scorer(self):
        from repro.faults.campaign import score_records

        records = self.campaign_records()
        scores = {s.policy: s for s in score_records(records)}
        assert scores["SRAA"].mean_detection_latency_s == 100.0
        assert scores["ADAPTIVE"].mean_detection_latency_s == 150.0
        assert scores["SRAA"].false_alarms == 0

    def test_non_campaign_trace_has_no_section(self):
        document = render_report(trace_records())
        assert "campaign robustness" not in document
