"""Memory ceilings for trace I/O, counted with ``tracemalloc``.

``tracemalloc`` sees every allocation Python and numpy make, so on a
fixed trace these peaks are exact counts, not machine-dependent
samples.  Each bound states how many copies of a trace one operation
may hold: a write streams its columns (no copy), and a merge fills its
output in place (one copy).  A JSONL load returns the encoder's trace,
so it holds one copy plus the encoder's chunks of the column being
joined.  A tracer holds its encoded events plus one chunk of raw emit
tuples, a session writes one run at a time, and the query layer's run
views, report and re-scores copy no trace column whole.
"""

import gc
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.faults.campaign import score_records
from repro.obs.columnar.io import read_trace, write_columnar
from repro.obs.columnar.query import ColumnarQuery
from repro.obs.columnar.store import (
    _COLUMNS,
    _DECODE_CHUNK,
    ColumnarTrace,
    encode_records,
)
from repro.obs.columnar.synth import synth_campaign_trace
from repro.obs.events import RUN_META
from repro.obs.exporters import write_jsonl_lines
from repro.obs.live.report import render_report
from repro.obs.session import TraceSession
from repro.obs.tracer import Tracer

MIB = 1 << 20
BATCHES = 12


def trace_bytes(trace):
    """The bytes a trace's columns hold."""
    return sum(getattr(trace, name).nbytes for name in _COLUMNS)


def traced_peak(fn):
    """``(fn(), peak bytes traced above the level before the call)``."""
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def trace():
    """~36k records: 12 runs of a 3-scenario x 2-policy campaign."""
    return synth_campaign_trace(
        runs=12,
        events_per_run=3000,
        seed=2006,
        scenarios=("aging_onset", "traffic_surge", "leak"),
        false_alarms_per_run=2,
    )


@pytest.mark.parametrize("name", ["t.rcol", "t.rcol.gz"])
def test_write_columnar_streams_its_columns(trace, tmp_path, name):
    assert trace_bytes(trace) > 2 * MIB
    _, peak = traced_peak(lambda: write_columnar(trace, str(tmp_path / name)))
    assert peak <= MIB, f"write_columnar peaked at {peak / MIB:.2f} MiB"


def test_from_batches_fills_one_copy(trace):
    records = trace.records()
    size = -(-len(records) // BATCHES)
    batches = [
        encode_records(records[start : start + size])
        for start in range(0, len(records), size)
    ]
    del records
    assert len(batches) >= 10
    merged, peak = traced_peak(lambda: ColumnarTrace.from_batches(batches))
    assert merged.records() == trace.records()
    ratio = peak / trace_bytes(merged)
    assert ratio <= 1.1, f"from_batches peaked at {ratio:.2f}x its output"


def test_read_trace_on_jsonl_holds_one_copy(trace, tmp_path):
    path = str(tmp_path / "t.jsonl")
    write_jsonl_lines(path, trace.to_jsonl_lines())
    loaded, peak = traced_peak(lambda: read_trace(path))
    assert loaded.records() == trace.records()
    ratio = peak / trace_bytes(loaded)
    assert ratio <= 1.5, f"read_trace peaked at {ratio:.2f}x the trace"


def _emits(n):
    """``n`` emit tuples of three payload shapes, with fresh payloads."""
    for index in range(n):
        ts = index * 0.01
        if index % 3 == 0:
            yield ts, "request.arrival", "system", {"index": index}
        elif index % 3 == 1:
            yield ts, "request.complete", "system", {
                "index": index,
                "response_time": ts / 7.0,
                "node": index % 16,
            }
        else:
            yield ts, "policy.batch", "policy:sraa", {
                "level": index % 5,
                "mean": ts / 3.0,
                "exceeded": bool(index % 2),
            }


def _traced(n):
    tracer = Tracer("all")
    for ts, etype, source, data in _emits(n):
        tracer.emit(ts, etype, source, **data)
    return tracer.payload()


def test_tracer_holds_its_trace_plus_one_chunk_of_tuples():
    _traced(100)  # warm up
    trace, peak = traced_peak(lambda: _traced(50_000))
    assert len(trace) == 50_000
    _, chunk = traced_peak(lambda: list(_emits(_DECODE_CHUNK)))
    bound = trace_bytes(trace) + chunk
    assert peak <= bound, (
        f"a 50k-emit tracer peaked at {peak / MIB:.2f} MiB, "
        f"above {bound / MIB:.2f} MiB"
    )


@pytest.mark.parametrize(
    "consume", [ColumnarQuery.run_views, render_report, score_records]
)
def test_consumers_copy_no_column_whole(trace, consume):
    query = ColumnarQuery(trace)
    consume(query)  # warm up: lazy imports and shape-table caches
    _, peak = traced_peak(lambda: consume(query))
    ratio = peak / trace_bytes(trace)
    assert ratio <= 0.25, f"peaked at {ratio:.2f}x the trace's columns"


@pytest.fixture(scope="module")
def session(trace):
    """A session holding the module trace's runs, as workers return
    them: each run's events as its own one-segment trace."""
    session = TraceSession("all")
    for view in ColumnarQuery(trace).run_views():
        events = [
            record
            for record in view.records()
            if record["type"] != RUN_META
        ]
        meta = view.meta
        summary = dict.fromkeys(
            (
                "arrivals",
                "completed",
                "lost",
                "avg_response_time",
                "loss_fraction",
                "gc_count",
                "rejuvenations",
                "sim_duration_s",
            ),
            0,
        )
        session.ingest(
            [SimpleNamespace(tag=tuple(meta["tag"]), seed=meta["seed"])],
            [SimpleNamespace(trace=encode_records(events), **summary)],
        )
    return session


@pytest.mark.parametrize("trace_format", ["columnar", "jsonl"])
def test_session_writes_one_run_at_a_time(
    trace, session, tmp_path, trace_format
):
    session.trace_format = trace_format
    path = tmp_path / "session.trace"
    largest = max(trace_bytes(run.events) for run in session.runs)
    bound = MIB + largest
    if trace_format == "jsonl":
        # The JSONL writer holds a block of formatted lines and their
        # joined text, whatever the trace: count that block once, as
        # writing an in-memory trace's lines costs it.
        lines = str(tmp_path / "lines.jsonl")
        _, block = traced_peak(
            lambda: write_jsonl_lines(lines, trace.to_jsonl_lines())
        )
        bound += block
    session.write_trace(str(path))  # warm up
    records, peak = traced_peak(lambda: session.write_trace(str(path)))
    assert peak <= bound, (
        f"write_trace peaked at {peak / MIB:.2f} MiB, above "
        f"{bound / MIB:.2f} MiB (runs of at most {largest / MIB:.2f} MiB)"
    )
    merged = session.columnar_trace()
    assert records == len(merged)
    expected = tmp_path / "merged.trace"
    if trace_format == "columnar":
        write_columnar(merged, str(expected))
    else:
        write_jsonl_lines(str(expected), merged.to_jsonl_lines())
    assert path.read_bytes() == expected.read_bytes()
