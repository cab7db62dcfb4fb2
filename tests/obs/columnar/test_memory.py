"""Memory ceilings for trace I/O, counted with ``tracemalloc``.

``tracemalloc`` sees every allocation Python and numpy make, so on a
fixed trace these peaks are exact counts, not machine-dependent
samples.  Each bound states how many copies of a trace one operation
may hold: a write streams its columns (no copy), and a merge fills its
output in place (one copy).  A JSONL load returns the encoder's trace,
so it holds one copy plus the encoder's chunks of the column being
joined.
"""

import gc
import tracemalloc

import pytest

from repro.obs.columnar.io import read_trace, write_columnar
from repro.obs.columnar.store import (
    _COLUMNS,
    ColumnarTrace,
    encode_records,
)
from repro.obs.columnar.synth import synth_campaign_trace
from repro.obs.exporters import write_jsonl_lines

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
