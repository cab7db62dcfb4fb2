"""Self-test of the benchmark harness, at a tiny size.

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    ORACLE_SEED,
    BenchBackend,
    PaperQuick,
    Tally,
)


def spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_untraced_run_reports_every_end_to_end_metric():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paper_quick",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in spec()["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_probes_report_every_per_layer_metric(tmp_path):
    from probes import Probes

    metrics = Probes(7, str(tmp_path), SpanRecorder(), size=0.02).run()
    metrics["trace_overhead"] = 1.0
    assert set(metrics) == {m["name"] for m in spec()["per_layer"]}


def test_corrupted_digest_is_caught_and_counted(tmp_path):
    workload = PaperQuick(ORACLE_SEED, str(tmp_path))
    workload.setup()
    tally = Tally()
    _, digests = workload.round(tally, None)
    pinned = run.expected_digests("paper_quick")

    run.Oracle(tally, pinned).check(digests)
    assert tally.failed == 0, tally.problems

    corrupted = dict(pinned, fig16="0" * 64)
    run.Oracle(tally, corrupted).check(digests)
    assert tally.failed == 1
    assert tally.attempted > tally.failed
    assert "fig16" in tally.problems[0]


def test_round_to_round_drift_is_caught():
    tally = Tally()
    oracle = run.Oracle(tally, None)
    oracle.check({"table": "a"})
    oracle.check({"table": "b"})
    assert tally.failed == 1


def test_backend_counts_a_result_that_loses_transactions():
    from repro.ecommerce.metrics import RunResult
    from repro.exec.backends import SerialBackend

    class Job:
        n_transactions, warmup, tag = 10, 0, ("fake",)

    def lossy(job):
        return RunResult(arrivals=10, completed=7, lost=2,
                         avg_response_time=1.0, rt_std=0.0,
                         max_response_time=1.0, loss_fraction=0.2,
                         gc_count=0, rejuvenations=0, sim_duration_s=1.0)

    tally = Tally()
    BenchBackend(SerialBackend(), tally).map(lossy, [Job()])
    assert (tally.attempted, tally.failed) == (1, 1)


def test_spans_nest_and_self_time_subtracts_child_coverage():
    rec = SpanRecorder()
    with rec.span("round") as root:
        with rec.span("faults.campaign") as campaign:
            with rec.span("exec.map") as mapped:
                time.sleep(0.01)
    start = rec.spans[mapped].start
    # Two overlapping parallel jobs cover [start, start + 3 ms].
    rec.add("des.run", start, start + 2_000_000, parent=mapped)
    rec.add("des.run", start + 1_000_000, start + 3_000_000, parent=mapped)
    rec.add("probe.des", 0, 1)

    spans = rec.spans
    assert spans[root].parent is None
    assert spans[campaign].parent == root
    assert spans[mapped].parent == campaign
    assert {span.trace for span in spans[:-1]} == {root}
    own = rec.self_ns()
    mapped_ns = spans[mapped].end - spans[mapped].start
    assert own[mapped] == mapped_ns - 3_000_000
    assert own[campaign] == (
        spans[campaign].end - spans[campaign].start - mapped_ns
    )
    layers = rec.layer_self_s("round")
    assert layers["exec"] == pytest.approx(own[mapped] / 1e9)
    assert layers["des"] == pytest.approx(0.004)
    assert "probe" not in layers


def test_spans_from_threads_nest_under_an_explicit_parent():
    rec = SpanRecorder()
    with rec.span("round") as root:
        def client():
            with rec.span("serve.client", parent=root):
                with rec.span("serve.get"):
                    pass

        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    clients = [i for i, s in enumerate(rec.spans) if s.name == "serve.client"]
    gets = [s for s in rec.spans if s.name == "serve.get"]
    assert all(rec.spans[i].parent == root for i in clients)
    assert sorted(s.parent for s in gets) == sorted(clients)
    assert all(s.trace == root for s in rec.spans)
