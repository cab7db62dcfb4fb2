"""On-disk container for columnar traces.

Layout (all integers little-endian)::

    8 bytes   magic  b"RCOLTRC1"
    ...       column arrays, raw C-order bytes, each 8-byte aligned
    ...       footer: one UTF-8 JSON object
    8 bytes   u64 footer byte length
    8 bytes   trailer magic b"RCOLEND1"

The footer carries everything except the bulk data: format version,
the four string dictionaries (event types, sources, payload strings,
raw JSON fragments), the shape table, an array table (name, dtype,
byte offset, element count per column) and the *segment index* -- one
``{rows: [start, stop], events, ts_min, ts_max, kinds}`` entry per
merged trace, where ``kinds`` is a bitmap over the event-type
dictionary.  Readers parse the footer first and can skip whole
segments on a time-range or kind filter without touching their bytes.

Plain files are mapped with ``numpy.memmap`` so loading a trace costs
one footer parse regardless of size; ``.gz`` paths are transparently
compressed as the columns stream out and decompressed whole on read
-- the same convention as the JSONL exporters.
The arrays are written in fixed little-endian dtypes, so the bytes a
given trace produces are platform-independent (and serial vs
process-pool runs of the same campaign produce byte-identical files).

:func:`read_trace` is the one reader every consumer goes through: it
sniffs the format, loads ``.rcol`` as above, and decodes JSONL at this
boundary by streaming its lines straight into the columnar encoder.
"""

from __future__ import annotations

import gzip
import json
from typing import Any, BinaryIO, Callable, Dict, List, Tuple, Union

import numpy as np

from repro.obs.exporters import DAMAGED_FILE_ERRORS, iter_jsonl

from . import store
from .store import ColumnarTrace, MergePlan, encode_records

MAGIC = b"RCOLTRC1"
TRAILER = b"RCOLEND1"
FORMAT_VERSION = 1

#: (attribute name, on-disk little-endian dtype) for every bulk column.
_ARRAYS: Tuple[Tuple[str, str], ...] = (
    ("run", "<i8"),
    ("ts", "<f8"),
    ("type_id", "<u4"),
    ("source_id", "<u4"),
    ("shape_id", "<u4"),
    ("ints_off", "<u8"),
    ("floats_off", "<u8"),
    ("strs_off", "<u8"),
    ("jsons_off", "<u8"),
    ("ints", "<i8"),
    ("floats", "<f8"),
    ("strs", "<u4"),
    ("jsons", "<u4"),
)

_ARRAY_DTYPES = dict(_ARRAYS)

#: The list-valued keys every footer carries (:func:`_write_stream`).
_FOOTER_KEYS = (
    "arrays",
    "types",
    "sources",
    "strings",
    "fragments",
    "shapes",
    "segments",
)

#: The envelope kinds and payload tags a footer's shapes may name.
_KINDS = (store.ENV_EVENT, store.ENV_META, store.ENV_OPAQUE)
_TAGS = (
    store.TAG_NULL,
    store.TAG_BOOL,
    store.TAG_INT,
    store.TAG_FLOAT,
    store.TAG_STR,
    store.TAG_JSON,
)

_ALIGN = 8

#: Bytes per write of a column: bounds what the gzip stream compresses,
#: and holds as output, in one call.
_WRITE_CHUNK = 1 << 18


def _is_gz(path: str) -> bool:
    return str(path).endswith(".gz")


def write_columnar(
    trace: Union[ColumnarTrace, MergePlan], path: str
) -> None:
    """Write ``trace`` to ``path`` (gzip-compressed on a ``.gz`` suffix).

    The columns stream straight into the file, or into the gzip stream
    over it, so a write holds no copy of the trace.  ``trace`` may be a
    :class:`~repro.obs.columnar.store.MergePlan`: each column then goes
    out part by part, and the file is the one the merged trace writes.
    """
    with open(path, "wb") as handle:
        if _is_gz(path):
            # mtime=0 and no file name keep writes of the same trace
            # byte-identical, whenever and under whatever name they are
            # made.
            with gzip.GzipFile(
                filename="", fileobj=handle, mode="wb", mtime=0
            ) as zipped:
                _write_stream(trace, zipped)
        else:
            _write_stream(trace, handle)


def _write_stream(
    trace: Union[ColumnarTrace, MergePlan], out: BinaryIO
) -> None:
    out.write(MAGIC)
    position = len(MAGIC)
    table: List[Dict[str, Any]] = []
    for name, dtype in _ARRAYS:
        pad = (-position) % _ALIGN
        if pad:
            out.write(b"\0" * pad)
            position += pad
        entry = {"name": name, "dtype": dtype, "offset": position, "count": 0}
        for part in trace.column_parts(name):
            array = np.ascontiguousarray(part, dtype=np.dtype(dtype))
            raw = memoryview(array).cast("B")
            for start in range(0, len(raw), _WRITE_CHUNK):
                out.write(raw[start : start + _WRITE_CHUNK])
            entry["count"] += int(array.shape[0])
            position += len(raw)
        table.append(entry)
    footer = {
        "version": FORMAT_VERSION,
        "arrays": table,
        "types": list(trace.types),
        "sources": list(trace.sources),
        "strings": list(trace.strings),
        "fragments": list(trace.fragments),
        "shapes": [
            [kind, [[key, tag] for key, tag in fields]]
            for kind, fields in trace.shapes
        ],
        "segments": [
            {
                "rows": [start, stop],
                "events": stop - start,
                "ts_min": ts_min,
                "ts_max": ts_max,
                "kinds": kind_mask,
            }
            for start, stop, ts_min, ts_max, kind_mask in trace.segments
        ],
    }
    encoded = json.dumps(
        footer, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    out.write(encoded)
    out.write(len(encoded).to_bytes(8, "little"))
    out.write(TRAILER)


def _parse_footer(data: Any) -> Tuple[Dict[str, Any], int]:
    """The validated footer of a whole-file buffer, and its start.

    Checks the magic, the trailer, the footer length and the footer's
    version and list-valued keys; reads no column bytes.
    """
    size = len(data)
    if size < len(MAGIC) + 16 or bytes(data[: len(MAGIC)]) != MAGIC:
        raise ValueError("not a columnar trace (bad magic)")
    if bytes(data[size - 8 : size]) != TRAILER:
        raise ValueError("truncated columnar trace (bad trailer)")
    footer_len = int.from_bytes(bytes(data[size - 16 : size - 8]), "little")
    footer_start = size - 16 - footer_len
    if footer_start < len(MAGIC):
        raise ValueError("corrupt columnar trace (bad footer length)")
    try:
        footer = json.loads(bytes(data[footer_start : size - 16]))
    except ValueError:
        raise ValueError(
            "corrupt columnar trace (footer is not JSON)"
        ) from None
    if not isinstance(footer, dict):
        raise ValueError("corrupt columnar trace (footer is not an object)")
    if footer.get("version") != FORMAT_VERSION:
        raise ValueError(
            "unsupported columnar trace version: %r"
            % (footer.get("version"),)
        )
    missing = [
        key for key in _FOOTER_KEYS if not isinstance(footer.get(key), list)
    ]
    if missing:
        raise ValueError(
            "corrupt columnar trace (footer lacks a list of %s)"
            % ", ".join(missing)
        )
    return footer, footer_start


def _trace_from_bytes(data: Any) -> ColumnarTrace:
    """Build a trace over a bytes-like buffer (mmap or decompressed)."""
    footer, footer_start = _parse_footer(data)
    arrays: Dict[str, np.ndarray] = {}
    for index, entry in enumerate(footer["arrays"]):
        if not _is_array_entry(entry):
            raise ValueError(
                f"corrupt columnar trace (array entry {index}: unknown "
                "name or dtype, or a bad offset or count)"
            )
        dtype = np.dtype(entry["dtype"])
        start = entry["offset"]
        stop = start + entry["count"] * dtype.itemsize
        if stop > footer_start:
            raise ValueError("corrupt columnar trace (array overrun)")
        arrays[entry["name"]] = np.frombuffer(
            data, dtype=dtype, count=entry["count"], offset=start
        )
    missing = [name for name, _dtype in _ARRAYS if name not in arrays]
    if missing:
        raise ValueError(
            "corrupt columnar trace (no %s array)" % ", ".join(missing)
        )
    try:
        shapes = [
            (kind, tuple((key, tag) for key, tag in fields))
            for kind, fields in footer["shapes"]
        ]
        segments = [
            (
                segment["rows"][0],
                segment["rows"][1],
                segment["ts_min"],
                segment["ts_max"],
                segment["kinds"],
            )
            for segment in footer["segments"]
        ]
    except (TypeError, KeyError, IndexError, ValueError):
        raise ValueError(
            "corrupt columnar trace (malformed shapes or segments)"
        ) from None
    for kind, fields in shapes:
        if kind not in _KINDS or any(tag not in _TAGS for _, tag in fields):
            raise ValueError(
                "corrupt columnar trace (unknown shape kind or payload tag)"
            )
    trace = ColumnarTrace(
        types=list(footer["types"]),
        sources=list(footer["sources"]),
        strings=list(footer["strings"]),
        fragments=list(footer["fragments"]),
        shapes=shapes,
        segments=segments,
        **arrays,
    )
    _check_columns(trace)
    return trace


def _check_columns(trace: ColumnarTrace) -> None:
    """Reject column values that point past what they index.

    Every dictionary id must be below its dictionary's length, and each
    row's offset into a pool plus the values its shape takes from that
    pool must stay within the pool.  Offsets are pointers, not running
    totals -- a merged, re-sorted trace interleaves them -- so only
    their bounds are checked.  The columns are read
    ``_DECODE_CHUNK`` values at a time, so the temporaries stay small.
    An in-range wrong value is not detectable this way.
    """
    rows = len(trace)
    if any(
        getattr(trace, name).shape[0] != rows for name in store._ROW_NAMES
    ):
        raise ValueError(
            "corrupt columnar trace (row columns differ in length)"
        )
    chunk = store._DECODE_CHUNK
    for name, dictionary in store._ID_COLUMNS:
        column = getattr(trace, name)
        size = len(getattr(trace, dictionary))
        for start in range(0, column.shape[0], chunk):
            if column[start : start + chunk].max() >= size:
                raise ValueError(
                    f"corrupt columnar trace ({name} past the "
                    f"{dictionary} dictionary)"
                )
    per_shape = trace.shape_table.pool_counts().astype(np.uint64)
    for start in range(0, rows, chunk):
        counts = per_shape[trace.shape_id[start : start + chunk]]
        for column, (pool, off, _dtype) in enumerate(store._POOLS):
            size = np.uint64(getattr(trace, pool).shape[0])
            offsets = getattr(trace, off)[start : start + chunk]
            # The first test keeps the sum in the second from wrapping.
            if (offsets > size).any() or (
                offsets + counts[:, column] > size
            ).any():
                raise ValueError(
                    f"corrupt columnar trace ({off} past the {pool} pool)"
                )


def _is_array_entry(entry: Any) -> bool:
    """Whether a footer ``arrays`` entry names one of :data:`_ARRAYS`
    with its dtype and a non-negative offset and count."""
    return (
        isinstance(entry, dict)
        and _ARRAY_DTYPES.get(entry.get("name")) == entry.get("dtype")
        and all(
            type(entry.get(key)) is int and entry[key] >= 0
            for key in ("offset", "count")
        )
    )


def _parse_file(path: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` over the file's bytes: decompressed whole for ``.gz``,
    memory-mapped otherwise.

    A malformed file or a damaged gzip stream raises
    ``ValueError("PATH: ...")``.
    """
    try:
        if _is_gz(path):
            with gzip.open(path, "rb") as handle:
                return parse(handle.read())
        return parse(np.memmap(path, dtype=np.uint8, mode="r"))
    except (ValueError, *DAMAGED_FILE_ERRORS) as error:
        raise ValueError(f"{path}: {error}") from None


def read_columnar(path: str) -> ColumnarTrace:
    """Load a columnar trace (gz-aware; plain files are memory-mapped)."""
    return _parse_file(path, _trace_from_bytes)


def read_trace(path: str) -> ColumnarTrace:
    """Load a trace file in either format (gz-transparent).

    JSONL is streamed line by line into the encoder, so the list of
    record dicts is never built.
    """
    if sniff_format(path) == "columnar":
        return read_columnar(path)
    return encode_records(iter_jsonl(path))


def sniff_format(path: str) -> str:
    """``"columnar"`` or ``"jsonl"`` by magic bytes (gz-transparent)."""
    with open(path, "rb") as handle:
        head = handle.read(2)
        if head == b"\x1f\x8b":
            handle.seek(0)
            try:
                with gzip.open(handle, "rb") as zipped:
                    head = zipped.read(len(MAGIC))
            except DAMAGED_FILE_ERRORS as error:
                raise ValueError(f"{path}: {error}") from None
        else:
            head += handle.read(len(MAGIC) - len(head))
    return "columnar" if head[: len(MAGIC)] == MAGIC else "jsonl"
