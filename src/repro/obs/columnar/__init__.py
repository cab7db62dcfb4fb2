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

from repro._lazy import lazy_exports

_EXPORTS = {
    "read_columnar": ".io",
    "read_trace": ".io",
    "sniff_format": ".io",
    "write_columnar": ".io",
    "ColumnarQuery": ".query",
    "as_query": ".query",
    "load_query": ".query",
    "ColumnarTrace": ".store",
    "encode_records": ".store",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
