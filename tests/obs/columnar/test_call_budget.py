"""A ceiling on the Python work per record of trace encoding and loading.

Wall-clock on a shared machine wanders by tens of percent, so this
counts something that does not: Python function calls (the ``"call"``
events of :func:`sys.setprofile`, which include each resumption of a
generator; C calls are not counted) per record.

On a synthetic trace of 4 runs x 3000 events, loading the JSONL twin
with ``read_trace`` cost 11.04 calls per record while each line went
through ``json.loads`` and each event through ``add_event`` and its
helpers, and 2.05 once lines went to the C scanner and events to the
one ``add_events`` loop (what is left is the line generator and the
event-row generator).  Encoding a tracer buffer with ``encode_events``
went from 6.01 to 1.01 calls per event (the row generator).  The
ceilings of 3 and 1.5 leave room for a frame of drift while catching
any return of a per-record call.
"""

import sys

import pytest

from repro.obs.columnar.io import read_trace
from repro.obs.columnar.store import _EVENT_KEYS, encode_events
from repro.obs.columnar.synth import synth_campaign_trace
from repro.obs.exporters import write_jsonl_lines

#: Python-level calls per record each path may spend.
READ_CEILING = 3.0
ENCODE_CEILING = 1.5


def python_calls(fn):
    """``(fn(), Python calls made while it ran)``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, calls


@pytest.fixture(scope="module")
def trace():
    return synth_campaign_trace(
        runs=4,
        events_per_run=3000,
        scenarios=("aging_onset", "leak"),
        false_alarms_per_run=2,
    )


def test_read_trace_on_jsonl_stays_under_its_ceiling(trace, tmp_path):
    path = str(tmp_path / "t.jsonl")
    write_jsonl_lines(path, trace.to_jsonl_lines())
    read_trace(path)  # warm-up: first-call imports and caches
    loaded, calls = python_calls(lambda: read_trace(path))
    assert len(loaded) == len(trace)
    per_record = calls / len(trace)
    assert per_record <= READ_CEILING, (
        f"{per_record:.2f} Python calls per record (ceiling {READ_CEILING})"
    )


def test_encode_events_stays_under_its_ceiling(trace):
    events = [
        (r["ts"], r["type"], r["source"], r["data"])
        for r in trace.iter_records()
        if tuple(r) == _EVENT_KEYS
    ]
    encode_events(events)  # warm-up
    batch, calls = python_calls(lambda: encode_events(events))
    assert len(batch) == len(events)
    per_event = calls / len(events)
    assert per_event <= ENCODE_CEILING, (
        f"{per_event:.2f} Python calls per event (ceiling {ENCODE_CEILING})"
    )
