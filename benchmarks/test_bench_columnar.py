"""Columnar trace pipeline: query speedup.

``repro report`` + offline re-scoring over a >=1M-event trace must run
at least 5x faster from the columnar file than from the equivalent
JSONL, with identical output.  The trace is the deterministic synthetic
campaign (scripted ground truth), so the scores are also checked
against their known values, not just against each other.  The cost of
collecting a trace is pinned by ``test_bench_trace_overhead``.
"""

import os
import time

from conftest import BENCH_SEED, assertions_enabled, bench_scale

from repro.faults.campaign import score_records
from repro.obs.columnar.io import write_columnar
from repro.obs.columnar.query import load_query
from repro.obs.columnar.synth import synth_campaign_trace
from repro.obs.ledger import record_bench_point
from repro.obs.live.report import render_report

#: Acceptance: columnar consume >= 5x faster than JSONL consume.
SPEEDUP_FLOOR = 5.0


def _events_per_run() -> int:
    # >=1M completions total at quick scale and above; tiny at smoke.
    return 250_000 if assertions_enabled() else 5_000


def _consume(path):
    """What `repro report` + re-scoring actually do to a trace file."""
    query = load_query(path)
    html = render_report(query)
    scores = score_records(query)
    return html, scores


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def test_columnar_query_speedup(benchmark, tmp_path):
    runs = 4
    events_per_run = _events_per_run()
    trace = synth_campaign_trace(
        runs=runs,
        events_per_run=events_per_run,
        seed=BENCH_SEED,
        detection_delay_s=30.0,
        false_alarms_per_run=1,
    )

    jsonl = str(tmp_path / "trace.jsonl")
    with open(jsonl, "w", encoding="utf-8") as handle:
        for line in trace.to_jsonl_lines():
            handle.write(line + "\n")
    rcol = str(tmp_path / "trace.rcol")
    write_columnar(trace, rcol)

    # Warm-up on the columnar side (imports, allocator).
    _consume(rcol)

    columnar_s, (columnar_html, columnar_scores) = _timed(
        lambda: _consume(rcol)
    )
    jsonl_s, (jsonl_html, jsonl_scores) = _timed(lambda: _consume(jsonl))

    # Identical consumer output from both formats.
    assert columnar_html == jsonl_html
    assert columnar_scores == jsonl_scores
    # ... and correct against the scripted ground truth.
    for score in columnar_scores:
        assert score.detected == score.replications
        assert score.missed == 0
        assert abs(score.mean_detection_latency_s - 30.0) < 1e-9
        assert score.false_alarms == score.replications

    speedup = jsonl_s / columnar_s if columnar_s else float("inf")
    total_events = runs * events_per_run
    benchmark.extra_info["events"] = total_events
    benchmark.extra_info["jsonl_s"] = round(jsonl_s, 4)
    benchmark.extra_info["columnar_s"] = round(columnar_s, 4)
    benchmark.extra_info["speedup_x"] = round(speedup, 2)
    benchmark.extra_info["jsonl_mb"] = round(
        os.path.getsize(jsonl) / 1e6, 1
    )
    benchmark.extra_info["rcol_mb"] = round(
        os.path.getsize(rcol) / 1e6, 1
    )
    print(
        f"\nreport+rescore over {total_events} events: jsonl "
        f"{jsonl_s:.2f}s, columnar {columnar_s:.2f}s "
        f"({speedup:.1f}x); file sizes "
        f"{os.path.getsize(jsonl) / 1e6:.0f}MB vs "
        f"{os.path.getsize(rcol) / 1e6:.0f}MB"
    )
    record_bench_point(
        f"columnar_{bench_scale().label}",
        round(speedup, 2),
        units="x",
        seed=BENCH_SEED,
    )

    if assertions_enabled():
        assert speedup >= SPEEDUP_FLOOR, (
            f"columnar consume only {speedup:.1f}x faster than JSONL "
            f"over {total_events} events -- below the "
            f"{SPEEDUP_FLOOR:.0f}x acceptance floor"
        )

    # Keep pytest-benchmark's timing machinery fed with the fast path.
    benchmark.pedantic(_consume, args=(rcol,), rounds=1, iterations=1)
