"""``repro.obs.columnar``: the columnar trace pipeline.

Structured-array storage for trace events (:mod:`.store`), an
mmap/gzip-friendly on-disk container with a footer segment index
(:mod:`.io`), the :class:`ColumnarRun` payload every traced run ships
across process pools (:mod:`.store`), the one query engine shared by
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
from .store import ColumnarRun, ColumnarTrace, EventBatch, encode_records

__all__ = [
    "ColumnarQuery",
    "ColumnarRun",
    "ColumnarTrace",
    "EventBatch",
    "as_query",
    "encode_records",
    "load_query",
    "read_columnar",
    "read_footer",
    "read_trace",
    "sniff_format",
    "write_columnar",
]
