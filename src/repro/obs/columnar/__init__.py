"""``repro.obs.columnar``: the columnar trace pipeline.

Structured-array storage for trace events (:mod:`.store`): one
:class:`ColumnarTrace` type carries a trace from the tracer that
encodes a run's events, across process pools on ``RunResult.trace``,
through the merge, to the file.  Around it: an mmap/gzip-friendly
on-disk container with a footer segment index (:mod:`.io`), the one
query engine shared by
``report``/``explain``/re-scoring/``watch``/``serve``
(:mod:`.query`), lossless format conversion (:mod:`.convert`), and a
synthetic trace generator for scale testing (:mod:`.synth`).

JSONL stays the interchange format, decoded at the file boundary:
:func:`read_trace` streams a JSONL file straight into the columnar
encoder, so every consumer queries the same representation whichever
format the trace was written in.  Every record a columnar trace stores
decodes back to the exact dict its JSONL twin parses to (pinned by
tests/obs/columnar).
"""

from .io import (
    read_columnar,
    read_footer,
    read_trace,
    sniff_format,
    write_columnar,
)
from .query import (
    ColumnarQuery,
    as_query,
    load_query,
)
from .store import ColumnarTrace, encode_records

__all__ = [
    "ColumnarQuery",
    "ColumnarTrace",
    "as_query",
    "encode_records",
    "load_query",
    "read_columnar",
    "read_footer",
    "read_trace",
    "sniff_format",
    "write_columnar",
]
