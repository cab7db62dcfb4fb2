"""Trace and metrics exporters: JSONL, Chrome ``trace_event``, Prometheus.

The canonical on-disk form is JSONL: one JSON object per line, each
carrying the run bookkeeping (``run`` index, ``tag``, ``seed``) plus
the event fields (``ts``, ``type``, ``source``, ``data``).  JSONL
round-trips losslessly (:func:`read_jsonl` /
:meth:`~repro.obs.events.TraceEvent.from_dict`), streams, greps, and is
what ``repro explain`` consumes.

The Chrome ``trace_event`` export is a plain JSON **array** of
``{name, ph, ts, pid, tid}`` records -- the subset of the trace-event
format both ``chrome://tracing`` and Perfetto accept.  Replications map
to ``pid``, emitting sources to ``tid``, and request lifecycles become
complete (``ph="X"``) slices whose duration is the response time, so a
loaded trace shows the paper's soft-failure episodes as widening spans.

The Prometheus export is the node-exporter "textfile collector"
convention: a point-in-time snapshot of a
:class:`~repro.obs.metrics.MetricsRegistry` in text exposition format.
"""

from __future__ import annotations

import gzip
import io
import json
import zlib
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List

from repro.obs.events import REQUEST_COMPLETE, RUN_META, compact_json
from repro.obs.metrics import MetricsRegistry

#: Microseconds per simulated second (trace_event timestamps are in us).
_US = 1_000_000.0

#: Lines per ``write`` call of :func:`write_jsonl_lines`.
_BLOCK_LINES = 4096

#: What a damaged trace file raises while its stream is read: bytes
#: that are not UTF-8, a gzip stream cut short or corrupt, or a ``.gz``
#: file that is not gzip.  The trace readers report each as
#: ``ValueError("PATH: ...")``.
DAMAGED_FILE_ERRORS = (
    UnicodeDecodeError,
    EOFError,
    gzip.BadGzipFile,
    zlib.error,
)


def open_text(path: str, mode: str):
    """Text-mode open that is gzip-transparent on a ``.gz`` suffix.

    Campaign traces are routinely gzipped for archiving (the CI fault
    job does); every JSONL reader and writer here accepts both forms,
    so ``repro explain``, ``repro faults score`` and ``repro report``
    work on ``.jsonl.gz`` without an explicit decompression step; the
    experiment-result JSON (``--json x.json.gz``) goes through it too.
    Writes stamp ``mtime=0`` and an empty file name into the gzip
    header, so the same lines give the same bytes whenever and under
    whatever name they are written (as ``.rcol.gz`` writes do).
    """
    if not path.endswith(".gz"):
        return open(path, mode, encoding="utf-8")
    if mode == "w":
        raw = open(path, "wb")
        zipped = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
        zipped.myfileobj = raw  # close the file with the stream
        return io.TextIOWrapper(zipped, encoding="utf-8")
    return gzip.open(path, mode + "t", encoding="utf-8")


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------
def write_jsonl_lines(path: str, lines: Iterable[str]) -> int:
    """Write JSONL lines (gzipped on a ``.gz`` path), a block of lines
    per ``write``; return the number of lines."""
    lines = iter(lines)
    count = 0
    with open_text(path, "w") as handle:
        while True:
            block = list(islice(lines, _BLOCK_LINES))
            if not block:
                return count
            handle.write("\n".join(block))
            handle.write("\n")
            count += len(block)


def write_jsonl(path: str, records: Iterable[Dict[str, Any]]) -> int:
    """Write one JSON object per line (gzipped on a ``.gz`` path);
    return the number of lines.

    For plain record iterables; a trace is written from its columns
    (:meth:`~repro.obs.columnar.store.ColumnarTrace.to_jsonl_lines`).
    """
    return write_jsonl_lines(path, map(compact_json, records))


#: The C scanner behind ``json.loads``, called straight on each line.
_scan_once = json.decoder.JSONDecoder().scan_once


def iter_jsonl(path: str) -> Iterable[Dict[str, Any]]:
    """Stream the records of a JSONL trace file (plain or ``.gz``).

    A line that is one JSON object ending exactly at its newline -- what
    every writer here produces -- is parsed by the C scanner alone.  Any
    other line takes the full ``json.loads(line.strip())`` path, which
    skips blank lines and names the line of a malformed one.  A damaged
    stream (:data:`DAMAGED_FILE_ERRORS`) raises ``ValueError("PATH:
    ...")`` without a line number: the text reader decodes ahead of the
    line it yields.
    """
    try:
        with open_text(path, "r") as handle:
            for line_no, line in enumerate(handle, start=1):
                try:
                    record, end = _scan_once(line, 0)
                except (StopIteration, ValueError):
                    record = end = None
                if type(record) is dict and line[end:] == "\n":
                    yield record
                    continue
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path}:{line_no}: not valid JSONL ({exc})"
                    ) from None
                if not isinstance(record, dict):
                    raise ValueError(
                        f"{path}:{line_no}: expected a JSON object, got "
                        f"{type(record).__name__}"
                    )
                yield record
    except DAMAGED_FILE_ERRORS as error:
        raise ValueError(f"{path}: {error}") from None


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """All records of a JSONL trace file (plain or ``.gz``)."""
    return list(iter_jsonl(path))


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------
def chrome_trace_records(
    records: Iterable[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Convert flat JSONL records to Chrome ``trace_event`` dicts."""
    return list(_iter_chrome_records(records))


def _iter_chrome_records(
    records: Iterable[Dict[str, Any]],
) -> Iterator[Dict[str, Any]]:
    tids: Dict[str, int] = {}
    named_pids: set = set()

    def tid_for(source: str) -> int:
        if source not in tids:
            tids[source] = len(tids) + 1
        return tids[source]

    for record in records:
        pid = int(record.get("run", 0))
        etype = record.get("type", "")
        data = record.get("data", {})
        if etype == RUN_META:
            if pid not in named_pids:
                named_pids.add(pid)
                tag = record.get("tag")
                label = f"replication {pid}" + (f" {tag}" if tag else "")
                yield {
                    "name": "process_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            continue
        ts_us = float(record.get("ts", 0.0)) * _US
        source = str(record.get("source", ""))
        if etype == REQUEST_COMPLETE and "response_time" in data:
            duration_us = float(data["response_time"]) * _US
            yield {
                "name": "request",
                "ph": "X",
                "ts": ts_us - duration_us,
                "dur": duration_us,
                "pid": pid,
                "tid": tid_for(source),
                "args": dict(data),
            }
            continue
        yield {
            "name": etype,
            "ph": "i",
            "s": "t",
            "ts": ts_us,
            "pid": pid,
            "tid": tid_for(source),
            "args": dict(data),
        }


def write_chrome_trace(
    path: str, records: Iterable[Dict[str, Any]]
) -> int:
    """Write the Chrome/Perfetto JSON array; return the record count.

    Streams one compact element at a time: the bytes of
    ``json.dump(chrome_trace_records(records))``, without holding the
    converted list.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("[")
        for event in _iter_chrome_records(records):
            if count:
                handle.write(",")
            handle.write(compact_json(event))
            count += 1
        handle.write("]")
    return count


# ---------------------------------------------------------------------------
# Prometheus textfile
# ---------------------------------------------------------------------------
def write_prometheus(path: str, registry: MetricsRegistry) -> None:
    """Write a textfile-collector snapshot of the registry."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(registry.to_prometheus())
