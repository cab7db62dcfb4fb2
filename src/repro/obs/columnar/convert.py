"""Lossless JSONL ⇄ columnar conversion (``repro trace convert``).

The direction is inferred: the input's format is sniffed from its
magic bytes (gz-transparent), and the output format defaults to the
*other* representation unless the output path names one explicitly
(``.jsonl`` / ``.jsonl.gz`` means JSONL) or the caller forces one.

Converting JSONL -> columnar -> JSONL reproduces the original file
byte for byte for traces written by ``--trace`` (pinned by tests and
the CI ``cmp`` job): record envelopes, key order, value types, and
float representations all survive the round trip.  Arbitrary JSONL
that does not match the trace writer's envelopes is carried as opaque
fragments and round-trips to its compact-JSON form.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.obs.exporters import write_jsonl_lines

from .io import read_trace, sniff_format, write_columnar

#: Output format names accepted by :func:`convert_trace`.
FORMATS = ("jsonl", "columnar")


def infer_output_format(out_path: str, in_format: str) -> str:
    """The output format a path implies (default: the other one)."""
    name = str(out_path)
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    if name.endswith(".jsonl") or name.endswith(".json"):
        return "jsonl"
    if name.endswith(".rcol") or name.endswith(".columnar"):
        return "columnar"
    return "columnar" if in_format == "jsonl" else "jsonl"


def convert_trace(
    in_path: str,
    out_path: str,
    to: Optional[str] = None,
) -> Tuple[str, str, int]:
    """Convert ``in_path`` to ``out_path``.

    Returns ``(in_format, out_format, n_records)``.  ``to`` forces the
    output format; otherwise it is inferred from the output path (see
    :func:`infer_output_format`).  Both sides are gz-aware via the
    ``.gz`` suffix.
    """
    in_format = sniff_format(in_path)
    out_format = to or infer_output_format(out_path, in_format)
    if out_format not in FORMATS:
        raise ValueError(
            f"unknown output format {out_format!r}; expected one of "
            f"{FORMATS}"
        )

    trace = read_trace(in_path)
    if out_format == "columnar":
        write_columnar(trace, out_path)
        return in_format, out_format, len(trace)
    return in_format, out_format, write_jsonl_lines(
        out_path, trace.to_jsonl_lines()
    )
