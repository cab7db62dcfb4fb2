"""The columnar trace store: structured arrays + shape dictionaries.

The JSONL trace is row-major: one dict per event, one JSON object per
line.  That representation is what makes ``repro report`` and trace
re-scoring O(parse) instead of O(scan) -- at the million-event horizon
most of the wall-clock goes to ``json.loads`` and dict churn, not to
statistics.  This module stores the same records column-major in numpy
arrays, losslessly:

``ts``/``run``/``type``/``source``
    Dense typed columns (float64 / int64 / dictionary-encoded ids).
    Every scan the observability stack performs -- time-range slices,
    kind filters, per-run grouping, completion latencies -- is a
    vectorized operation over these.

shape dictionary
    Payload dicts are *shaped*: every emit call site produces the same
    ordered ``(key, value-type)`` signature, so a whole trace holds a
    handful of distinct payload shapes.  Each event stores one shape id
    plus its values appended to per-type pools (``ints`` int64,
    ``floats`` float64, ``strs``/``jsons`` dictionary ids).  Decoding
    walks the shape's keys and pulls values back from the pools, which
    reconstructs the original dict -- same keys, same order, same
    Python types -- exactly.

Losslessness is what lets JSONL be decoded at the file boundary:
``records -> ColumnarTrace -> records`` is identity (pinned by tests), so
a JSONL trace converted to columnar and back is byte-for-byte the same
file, and every consumer (``report``, ``explain``, ``faults score``,
``watch``, ``serve``) queries this one representation.

Records that do not match the two envelopes the trace writer produces
(per-event lines and ``run.meta`` lines) -- e.g. flight-recorder dump
lines, another key order, an integer ``ts`` -- are carried verbatim as
*opaque* JSON fragments: they survive the round trip and stay
addressable by run/ts, and :meth:`ColumnarTrace.field_float` decodes
them to read their payload fields, just without columnar acceleration.
"""

from __future__ import annotations

import json
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.obs.events import compact_json

#: Payload value tags (part of a shape's identity).
TAG_NULL = "n"
TAG_BOOL = "b"
TAG_INT = "i"
TAG_FLOAT = "f"
TAG_STR = "s"
TAG_JSON = "j"  # any other JSON value, as a compact fragment

#: Envelope kinds (how a record's top level is laid out).
ENV_EVENT = "event"  # {"ts","type","source","data",...,"run"}
ENV_META = "meta"  # {"run","tag","seed","ts","type","source","data"}
ENV_OPAQUE = "opaque"  # anything else, carried as one JSON fragment

#: The exact top-level key orders the trace writer produces
#: (:meth:`repro.obs.session.TraceSession.records`).
_EVENT_KEYS = ("ts", "type", "source", "data", "run")
_META_KEYS = ("run", "tag", "seed", "ts", "type", "source", "data")

#: int64 bounds; JSON ints outside them fall back to fragments.
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

#: A shape: envelope kind plus the ordered payload field signature.
#: Meta shapes prepend the pseudo-fields ``__tag`` (always a fragment)
#: and ``__seed``; the opaque shape holds one ``__raw`` fragment.
Shape = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Rows per decode chunk (see :meth:`ColumnarTrace.iter_records`), and
#: per encoder flush (see :class:`_BatchBuilder`).
_DECODE_CHUNK = 4096

#: The per-row columns of a trace, with their dtypes.
_ROW_COLUMNS = (
    ("run", np.int64),
    ("ts", np.float64),
    ("type_id", np.uint32),
    ("source_id", np.uint32),
    ("shape_id", np.uint32),
)

#: Each value pool: its name, its per-row offset column, and its dtype.
#: An encoded trace's offsets are uint32; a merged trace's are uint64,
#: since a merged pool can pass 2**32 values.  Every reader widens them
#: with ``astype(np.int64)`` and ``write_columnar`` writes them as
#: ``<u8``, so neither a file nor a decoded record depends on which.
_POOLS = (
    ("ints", "ints_off", np.int64),
    ("floats", "floats_off", np.float64),
    ("strs", "strs_off", np.uint32),
    ("jsons", "jsons_off", np.uint32),
)

#: The columns with one value per row: the row columns and the offsets.
_ROW_NAMES = tuple(name for name, _dtype in _ROW_COLUMNS) + tuple(
    off for _pool, off, _dtype in _POOLS
)

#: Every array column of an encoded trace, with its dtype.
_COLUMNS = {
    **dict(_ROW_COLUMNS),
    **{off: np.uint32 for _pool, off, _dtype in _POOLS},
    **{pool: dtype for pool, _off, dtype in _POOLS},
}


def _tag_of(value: Any) -> str:
    """The pool tag for one payload value (bool before int: bool is
    an int subclass)."""
    if value is None:
        return TAG_NULL
    if value is True or value is False:
        return TAG_BOOL
    if isinstance(value, int):
        return TAG_INT if _I64_MIN <= value <= _I64_MAX else TAG_JSON
    if isinstance(value, float):
        return TAG_FLOAT
    if isinstance(value, str):
        return TAG_STR
    return TAG_JSON


class _Dict:
    """An order-preserving string dictionary (value -> dense id)."""

    __slots__ = ("values", "ids")

    def __init__(self, values: Optional[List[str]] = None) -> None:
        self.values: List[str] = list(values or ())
        self.ids: Dict[str, int] = {
            value: index for index, value in enumerate(self.values)
        }

    def id_of(self, value: str) -> int:
        ids = self.ids
        found = ids.get(value)
        if found is None:
            found = len(self.values)
            ids[value] = found
            self.values.append(value)
        return found


def _json_key(key: Any) -> str:
    """``key`` as ``json`` writes a dict key (``True`` -> ``"true"``)."""
    if type(key) is str:
        return key
    (text,) = json.loads(compact_json({key: None}))
    return text


class ShapeTable:
    """The shape dictionary plus per-shape decode/query metadata."""

    __slots__ = ("shapes", "ids", "_meta")

    def __init__(self, shapes: Optional[Sequence[Shape]] = None) -> None:
        self.shapes: List[Shape] = [
            (kind, tuple((str(k), str(t)) for k, t in fields))
            for kind, fields in (shapes or ())
        ]
        self.ids: Dict[Shape, int] = {
            shape: index for index, shape in enumerate(self.shapes)
        }
        self._meta: List[Optional[dict]] = [None] * len(self.shapes)

    def id_of(self, shape: Shape) -> int:
        found = self.ids.get(shape)
        if found is None:
            # Payload keys are stored as JSON writes them, so a
            # non-string key decodes as ``json.loads`` would read it.
            # Non-string keys can be equal yet write differently (True,
            # 1 and 1.0), so a shape with one is looked up by its
            # stored form only, never by its raw keys; a shape of string
            # keys is its own stored form.
            kind, fields = shape
            stored = (
                kind, tuple((_json_key(key), tag) for key, tag in fields)
            )
            found = self.ids.get(stored)
            if found is None:
                found = len(self.shapes)
                self.ids[stored] = found
                self.shapes.append(stored)
                self._meta.append(None)
        return found

    def meta(self, shape_id: int) -> dict:
        """Per-shape pool consumption counts and key positions.

        ``counts`` maps tag -> values consumed; ``columns`` holds one
        ``(tag, position-within-that-tag's-pool-run)`` per field, in
        field order (bools share the int pool), and ``slots`` maps key
        -> column -- what the vectorized field gather in
        :meth:`ColumnarTrace.field_float` uses to find, say,
        ``response_time`` for every event of a shape in one
        fancy-indexing step.
        """
        cached = self._meta[shape_id]
        if cached is not None:
            return cached
        kind, fields = self.shapes[shape_id]
        counts = {TAG_INT: 0, TAG_FLOAT: 0, TAG_STR: 0, TAG_JSON: 0}
        columns: List[Tuple[str, int]] = []
        for _key, tag in fields:
            if tag == TAG_NULL:
                columns.append((TAG_NULL, 0))
                continue
            pool = TAG_INT if tag == TAG_BOOL else tag
            columns.append((tag, counts[pool]))
            counts[pool] += 1
        meta = {
            "kind": kind,
            "fields": fields,
            "ints": counts[TAG_INT],
            "floats": counts[TAG_FLOAT],
            "strs": counts[TAG_STR],
            "jsons": counts[TAG_JSON],
            "columns": columns,
            "slots": {
                key: column for (key, _tag), column in zip(fields, columns)
            },
        }
        self._meta[shape_id] = meta
        return meta

    def pool_counts(self) -> np.ndarray:
        """``(n_shapes, 4)`` values each shape consumes from the
        ints/floats/strs/jsons pools."""
        return np.asarray(
            [
                [meta["ints"], meta["floats"], meta["strs"], meta["jsons"]]
                for meta in map(self.meta, range(len(self.shapes)))
            ],
            dtype=np.int64,
        ).reshape(-1, 4)

    def __len__(self) -> int:
        return len(self.shapes)


class _BatchBuilder:
    """Append-side state while encoding records into a trace.

    Rows and pool values collect in lists, which move into numpy arrays
    every :data:`_DECODE_CHUNK` rows, so a long stream is never held as
    boxed Python values.  The dictionaries are builder-wide: a value's
    id does not depend on the chunk it first shows up in.
    """

    def __init__(self) -> None:
        self._chunks: Dict[str, List[np.ndarray]] = {
            name: [] for name in _COLUMNS
        }
        #: Values of each pool the flushed rows consumed.
        self._pool_base = np.zeros(4, dtype=np.int64)
        self.run: List[int] = []
        self.ts: List[float] = []
        self.type_id: List[int] = []
        self.source_id: List[int] = []
        self.shape_id: List[int] = []
        self.ints: List[int] = []
        self.floats: List[float] = []
        self.strs: List[int] = []
        self.jsons: List[int] = []
        self.types = _Dict()
        self.sources = _Dict()
        self.strings = _Dict()
        self.fragments = _Dict()
        self.shapes = ShapeTable()

    # ------------------------------------------------------------------
    def _pool_value(self, value: Any) -> str:
        """Append one payload value of any type to its pool; return its
        tag."""
        tag = _tag_of(value)
        if tag == TAG_FLOAT:
            self.floats.append(value)
        elif tag == TAG_INT:
            self.ints.append(value)
        elif tag == TAG_STR:
            self.strs.append(self.strings.id_of(value))
        elif tag == TAG_BOOL:
            self.ints.append(1 if value else 0)
        elif tag == TAG_JSON:
            self.jsons.append(self.fragments.id_of(compact_json(value)))
        return tag

    def _payload(self, data: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
        """Append one payload's values to the pools; return its fields."""
        return tuple(
            (key, self._pool_value(value)) for key, value in data.items()
        )

    def _begin(self, run: int, ts: float, etype: str, source: str) -> None:
        if len(self.run) >= _DECODE_CHUNK:
            self._flush()
        self.run.append(run)
        self.ts.append(ts)
        self.type_id.append(self.types.id_of(etype))
        self.source_id.append(self.sources.id_of(source))

    def add_events(
        self, rows: Iterable[Tuple[int, float, str, str, Dict[str, Any]]]
    ) -> None:
        """Append event-envelope rows ``(run, ts, type, source, data)``.

        The one encode loop: it runs once per traced event, so its
        common path calls no Python function.  Appends are bound once,
        a dictionary id is looked up before :meth:`_Dict.id_of` adds
        one, ``float``, in-range ``int`` and ``str`` values are tagged
        by their exact type, and a shape is looked up as built before
        :meth:`ShapeTable.id_of` stores a new one.  Every other value
        goes through :meth:`_pool_value`.
        """
        run_ids = self.run
        add_run, add_ts = run_ids.append, self.ts.append
        add_type, add_source = self.type_id.append, self.source_id.append
        add_shape = self.shape_id.append
        add_int, add_float = self.ints.append, self.floats.append
        add_str = self.strs.append
        types, sources = self.types, self.sources
        strings, shapes = self.strings, self.shapes
        type_of, source_of = types.ids.get, sources.ids.get
        string_of, shape_of = strings.ids.get, shapes.ids.get
        pool_value = self._pool_value
        for run, ts, etype, source, data in rows:
            add_run(run)
            add_ts(ts)
            found = type_of(etype)
            add_type(types.id_of(etype) if found is None else found)
            found = source_of(source)
            add_source(sources.id_of(source) if found is None else found)
            fields = []
            add_field = fields.append
            for key, value in data.items():
                kind = type(value)
                if kind is float:
                    add_float(value)
                    add_field((key, TAG_FLOAT))
                elif kind is int and _I64_MIN <= value <= _I64_MAX:
                    add_int(value)
                    add_field((key, TAG_INT))
                elif kind is str:
                    found = string_of(value)
                    add_str(strings.id_of(value) if found is None else found)
                    add_field((key, TAG_STR))
                else:
                    add_field((key, pool_value(value)))
            shape = (ENV_EVENT, tuple(fields))
            found = shape_of(shape)
            add_shape(shapes.id_of(shape) if found is None else found)
            if len(run_ids) >= _DECODE_CHUNK:
                self._flush()  # clears the lists, so the appends hold

    def add_meta(self, record: Dict[str, Any]) -> None:
        self._begin(
            record["run"], record["ts"], record["type"], record["source"]
        )
        tag_fragment = self.fragments.id_of(compact_json(record["tag"]))
        self.jsons.append(tag_fragment)
        seed_tag = self._pool_value(record["seed"])
        fields = (("__tag", TAG_JSON), ("__seed", seed_tag))
        fields += self._payload(record["data"])
        self.shape_id.append(self.shapes.id_of((ENV_META, fields)))

    def add_opaque(self, record: Dict[str, Any]) -> None:
        run = record.get("run")
        ts = record.get("ts")
        etype = record.get("type")
        in_range = (
            isinstance(run, int)
            and not isinstance(run, bool)
            and _I64_MIN <= run <= _I64_MAX
        )
        self._begin(
            run if in_range else 0,
            float(ts) if isinstance(ts, (int, float)) else 0.0,
            etype if isinstance(etype, str) else "",
            "",
        )
        self.jsons.append(self.fragments.id_of(compact_json(record)))
        self.shape_id.append(
            self.shapes.id_of((ENV_OPAQUE, (("__raw", TAG_JSON),)))
        )

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Move the listed rows and pool values into the chunk arrays."""
        if not self.run:
            return
        # Each row's pool offsets are the running totals of the values
        # its predecessors' shapes consumed.
        shape_id = np.asarray(self.shape_id, dtype=np.uint32)
        per_row = self.shapes.pool_counts()[shape_id]
        totals = np.cumsum(per_row, axis=0)
        starts = totals - per_row + self._pool_base
        self._pool_base += totals[-1]
        chunks = self._chunks
        for name, dtype in _ROW_COLUMNS:
            chunks[name].append(np.asarray(getattr(self, name), dtype=dtype))
            getattr(self, name).clear()
        for column, (pool, off, dtype) in enumerate(_POOLS):
            chunks[off].append(starts[:, column].astype(np.uint32))
            chunks[pool].append(np.asarray(getattr(self, pool), dtype=dtype))
            getattr(self, pool).clear()

    def finish(self) -> "ColumnarTrace":
        """The encoded rows as a one-segment trace: a single source's
        dictionaries are already the trace's own."""
        self._flush()
        arrays: Dict[str, Any] = {}
        for name, parts in self._chunks.items():
            arrays[name] = (
                np.concatenate(parts)
                if parts
                else np.zeros(0, dtype=_COLUMNS[name])
            )
            parts.clear()  # each column's chunks go once it is joined
        ts = arrays["ts"]
        return ColumnarTrace(
            types=self.types.values,
            sources=self.sources.values,
            strings=self.strings.values,
            fragments=self.fragments.values,
            shapes=self.shapes.shapes,
            segments=[_segment(0, len(ts), arrays["type_id"], ts)],
            **arrays,
        )


def _segment(
    start: int,
    stop: int,
    type_id: np.ndarray,
    ts: np.ndarray,
    type_map: Optional[np.ndarray] = None,
) -> Tuple[int, int, float, float, int]:
    """The segment-index row ``(start, stop, ts_min, ts_max, kind_mask)``
    of rows ``start:stop``, given their ``type_id`` and ``ts`` values;
    bit ``t`` of the mask says type id ``t`` occurs, after ``type_map``
    (a part's id map onto the merged dictionary, if any)."""
    if stop == start:
        return (start, stop, 0.0, 0.0, 0)
    present = np.zeros(int(type_id.max()) + 1, dtype=bool)
    present[type_id] = True
    ids = np.flatnonzero(present)
    if type_map is not None:
        ids = type_map[ids]
    mask = 0
    for tid in ids.tolist():
        mask |= 1 << tid
    return (start, stop, float(ts.min()), float(ts.max()), mask)


def _is_meta(record: Dict[str, Any]) -> bool:
    """Whether a parsed JSONL record is a writer's ``run.meta`` line."""
    return (
        tuple(record) == _META_KEYS
        and type(record["run"]) is int
        and _I64_MIN <= record["run"] <= _I64_MAX
        and isinstance(record["tag"], list)
        and type(record["ts"]) is float
        and isinstance(record["type"], str)
        and isinstance(record["source"], str)
        and isinstance(record["data"], dict)
    )


def encode_records(records: Iterable[Dict[str, Any]]) -> "ColumnarTrace":
    """Encode parsed JSONL records (in order, streamed) into a trace."""
    builder = _BatchBuilder()
    builder.add_events(_event_rows(records, builder))
    return builder.finish()


def _event_rows(
    records: Iterable[Dict[str, Any]], builder: _BatchBuilder
) -> Iterator[Tuple[int, float, str, str, Dict[str, Any]]]:
    """The event-envelope records as :meth:`_BatchBuilder.add_events`
    rows.  Meta and opaque records go to ``builder`` as they come, so
    every record keeps its place."""
    for record in records:
        if tuple(record) == _EVENT_KEYS:
            ts, etype, source, data, run = record.values()
            if (
                type(ts) is float
                and isinstance(etype, str)
                and isinstance(source, str)
                and isinstance(data, dict)
                and type(run) is int
                and _I64_MIN <= run <= _I64_MAX
            ):
                yield run, ts, etype, source, data
                continue
        elif _is_meta(record):
            builder.add_meta(record)
            continue
        builder.add_opaque(record)


def encode_events(
    events: Sequence[Tuple[float, str, str, Dict[str, Any]]],
    run: int = 0,
) -> "ColumnarTrace":
    """Encode raw emit tuples (the :class:`~repro.obs.tracer.Tracer`
    buffer) into a trace."""
    builder = _BatchBuilder()
    builder.add_events(
        (run, ts, etype, source, data) for ts, etype, source, data in events
    )
    return builder.finish()


def _id_map(table: Any, values: Sequence[Any]) -> Optional[np.ndarray]:
    """Register a part's dictionary ``values`` with ``table``, the
    merged dictionary, in order; return the part's id map onto it.

    ``None`` means the part's ids are already the merged ones (always
    so for the first part).
    """
    mapping = [table.id_of(value) for value in values]
    if mapping == list(range(len(mapping))):
        return None
    return np.asarray(mapping, dtype=np.uint32)


#: Each dictionary-id column, with the dictionary its values index.
_ID_COLUMNS = (
    ("type_id", "types"),
    ("source_id", "sources"),
    ("shape_id", "shapes"),
    ("strs", "strings"),
    ("jsons", "fragments"),
)

#: The dtype of each column of a merged trace: an encoded trace's, but
#: with uint64 pool offsets, since a merged pool can pass 2**32 values.
_MERGED_COLUMNS = {
    **_COLUMNS,
    **{off: np.uint64 for _pool, off, _dtype in _POOLS},
}


class MergePlan:
    """How traces merge, in submission order, into one trace with one
    segment per part.

    The plan is built from the parts' dictionaries and sizes: merged
    dictionaries that register each part's values in part order, each
    part's id map onto them, the pool base each part's offsets shift
    by, and the segment index.  :meth:`column_parts` then yields any merged column part by
    part.  :meth:`ColumnarTrace.from_batches` fills its columns from
    it, and :func:`~repro.obs.columnar.io.write_columnar` streams them
    to a file without building the merged trace, so both merge the same
    way.  A plan answers the dictionary and segment attributes of the
    trace it describes.
    """

    def __init__(self, traces: Sequence["ColumnarTrace"]) -> None:
        self.traces = list(traces)
        # A shape's identity is its (envelope, fields), which is
        # dictionary-independent, so the shape table merges directly.
        tables: Dict[str, Any] = {
            name: ShapeTable() if name == "shapes" else _Dict()
            for _column, name in _ID_COLUMNS
        }
        self.maps: List[Dict[str, Optional[np.ndarray]]] = []
        self.pool_bases: List[Dict[str, int]] = []
        self.segments: List[Tuple[int, int, float, float, int]] = []
        self.sizes = dict.fromkeys(_COLUMNS, 0)
        for trace in self.traces:
            maps = {
                column: _id_map(tables[name], getattr(trace, name))
                for column, name in _ID_COLUMNS
            }
            self.maps.append(maps)
            self.pool_bases.append(
                {off: self.sizes[pool] for pool, off, _dtype in _POOLS}
            )
            start = self.sizes["run"]
            self.segments.append(
                _segment(
                    start,
                    start + len(trace),
                    trace.type_id,
                    trace.ts,
                    maps["type_id"],
                )
            )
            for name in _COLUMNS:
                self.sizes[name] += int(getattr(trace, name).shape[0])
        self.types = tables["types"].values
        self.sources = tables["sources"].values
        self.strings = tables["strings"].values
        self.fragments = tables["fragments"].values
        self.shapes = tables["shapes"].shapes

    def __len__(self) -> int:
        return self.sizes["run"]

    def column_parts(self, name: str) -> Iterator[np.ndarray]:
        """Merged column ``name``, one part at a time, in part order.

        Dictionary ids come back mapped onto the merged dictionaries
        and pool offsets shifted by the part's pool base (as uint64);
        every other column is the part's own array.
        """
        for trace, maps, bases in zip(
            self.traces, self.maps, self.pool_bases
        ):
            part = getattr(trace, name)
            if name in maps:
                mapping = maps[name]
                # A fancy index holds one output-sized temporary;
                # ``np.take(..., out=...)`` would hold three (its intp
                # indices and its buffered output).
                yield part if mapping is None else mapping[part]
            elif name in bases:
                yield np.add(part, bases[name], dtype=np.uint64)
            else:
                yield part


# ---------------------------------------------------------------------------
# The consolidated store
# ---------------------------------------------------------------------------
class ColumnarTrace:
    """A trace: columns, dictionaries, and a segment index.

    Columns are parallel over records (``run``/``ts``/``type_id``/
    ``source_id``/``shape_id`` plus one offset per value pool), with
    the pools appended in record order.  The encoders
    (:func:`encode_events`, :func:`encode_records`) return a
    one-segment trace, and that is what a traced run carries back on
    ``RunResult.trace``: pickling arrays is a buffer copy, so a
    million-event replication returns from a pool worker without a
    million object serializations.  :meth:`from_batches` merges traces
    by copying each into its slice of columns allocated once,
    remapping its dictionary ids onto the merged dictionaries with one
    fancy index per column -- no record is re-parsed.  ``segments``
    keeps one ``(start, stop, ts_min, ts_max, kind_mask)`` row per
    merged trace: the on-disk footer index serializes it so readers can
    skip whole segments on time-range or kind filters.

    Traces are equal when they decode to the same records.
    """

    #: What a trace stores, and pickles; the shape table is a cache.
    _STORED = (
        "run",
        "ts",
        "type_id",
        "source_id",
        "shape_id",
        "ints_off",
        "floats_off",
        "strs_off",
        "jsons_off",
        "ints",
        "floats",
        "strs",
        "jsons",
        "types",
        "sources",
        "strings",
        "fragments",
        "shapes",
        "segments",
    )
    __slots__ = _STORED + ("_shape_table",)

    def __init__(self, **arrays: Any) -> None:
        for name in self._STORED:
            setattr(self, name, arrays[name])
        self._shape_table: Optional[ShapeTable] = None

    def __getstate__(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self._STORED}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(**state)  # type: ignore[misc]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return self.records() == other.records()

    __hash__ = None  # type: ignore[assignment]

    def with_run(self, run_index: int) -> "ColumnarTrace":
        """A copy whose every record belongs to ``run_index``.

        The submission-order ingest in
        :class:`~repro.obs.session.TraceSession` assigns run indices in
        the parent; worker-side traces are encoded with run 0.
        """
        state = self.__getstate__()
        state["run"] = np.full(len(self), run_index, dtype=np.int64)
        return ColumnarTrace(**state)

    # ------------------------------------------------------------------
    @property
    def shape_table(self) -> ShapeTable:
        if self._shape_table is None:
            self._shape_table = ShapeTable(self.shapes)
        return self._shape_table

    def __len__(self) -> int:
        return int(self.ts.shape[0])

    @property
    def n_records(self) -> int:
        return len(self)

    def column_parts(self, name: str) -> Iterator[np.ndarray]:
        """Column ``name`` as one part, as :meth:`MergePlan.column_parts`
        yields a merged column."""
        yield getattr(self, name)

    # ------------------------------------------------------------------
    @classmethod
    def from_batches(
        cls, traces: Sequence["ColumnarTrace"]
    ) -> "ColumnarTrace":
        """Merge traces (in submission order) into one, with one
        segment per merged trace.

        Each column is allocated once, sized from the totals, and each
        trace fills its own slice of it from the :class:`MergePlan` --
        except where one trace holds the whole column already, in the
        merged dtype: its array becomes the merged trace's.
        """
        plan = MergePlan(traces)
        columns: Dict[str, np.ndarray] = {}
        for name, dtype in _MERGED_COLUMNS.items():
            size = plan.sizes[name]
            column = None
            at = 0
            for part in plan.column_parts(name):
                if part.shape[0] == size and part.dtype == dtype:
                    column = part
                    break
                if column is None:
                    column = np.empty(size, dtype=dtype)
                column[at : at + part.shape[0]] = part
                at += part.shape[0]
            columns[name] = (
                np.empty(0, dtype=dtype) if column is None else column
            )
        return cls(
            types=plan.types,
            sources=plan.sources,
            strings=plan.strings,
            fragments=plan.fragments,
            shapes=plan.shapes,
            segments=plan.segments,
            **columns,
        )

    @classmethod
    def from_records(
        cls, records: Iterable[Dict[str, Any]]
    ) -> "ColumnarTrace":
        """Encode already-parsed JSONL records into a one-segment
        trace."""
        return encode_records(records)

    # ------------------------------------------------------------------
    # Decoding (the lossless inverse)
    # ------------------------------------------------------------------
    def decode(self, index: int) -> Dict[str, Any]:
        """Record ``index`` as the exact dict the JSONL line parses to."""
        return next(self.iter_records([index]))

    def iter_records(
        self, indices: Optional[Sequence[int]] = None
    ) -> Iterator[Dict[str, Any]]:
        """Decode records (all, or the given indices) in order.

        Rows are decoded in chunks of :data:`_DECODE_CHUNK`: each chunk
        converts its column slices and the pool values its rows consume
        to Python lists in a handful of numpy calls, so no record pays
        for numpy scalar indexing and no column is ever listed whole.
        """
        if indices is None:
            n = len(self)
            for start in range(0, n, _DECODE_CHUNK):
                yield from self._decode_rows(
                    slice(start, min(start + _DECODE_CHUNK, n))
                )
            return
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        for start in range(0, len(indices), _DECODE_CHUNK):
            yield from self._decode_rows(
                indices[start : start + _DECODE_CHUNK]
            )

    def _decode_rows(self, rows: Any) -> Iterator[Dict[str, Any]]:
        """Decode the rows a slice or index array selects."""
        table = self.shape_table
        shape_ids = self.shape_id[rows]
        per_row = table.pool_counts()[shape_ids]
        pulls = []
        for column, (pool, offsets) in enumerate(
            (
                (self.ints, self.ints_off),
                (self.floats, self.floats_off),
                (self.strs, self.strs_off),
                (self.jsons, self.jsons_off),
            )
        ):
            counts = per_row[:, column]
            # Each row's values sit at offset, offset+1, ...: gather
            # them for the whole chunk, in row order.
            starts = offsets[rows].astype(np.int64) - (
                np.cumsum(counts) - counts
            )
            gather = np.repeat(starts, counts) + np.arange(int(counts.sum()))
            pulls.append(pool[gather].tolist())
        strings, fragments = self.strings, self.fragments
        take_int = iter(pulls[0]).__next__
        take = {
            TAG_INT: take_int,
            TAG_FLOAT: iter(pulls[1]).__next__,
            TAG_STR: iter([strings[i] for i in pulls[2]]).__next__,
            TAG_JSON: iter(
                [json.loads(fragments[i]) for i in pulls[3]]
            ).__next__,
            TAG_BOOL: lambda: bool(take_int()),
            TAG_NULL: lambda: None,
        }
        # Per shape: its kind, keys, and one value getter per field.
        plans: Dict[int, Tuple[str, Tuple[str, ...], List[Any]]] = {}
        types, sources = self.types, self.sources
        for sid, ts, type_id, source_id, run in zip(
            shape_ids.tolist(),
            self.ts[rows].tolist(),
            self.type_id[rows].tolist(),
            self.source_id[rows].tolist(),
            self.run[rows].tolist(),
        ):
            plan = plans.get(sid)
            if plan is None:
                kind, fields = table.shapes[sid]
                plan = plans[sid] = (
                    kind,
                    tuple(key for key, _tag in fields),
                    [take[tag] for _key, tag in fields],
                )
            kind, keys, getters = plan
            if kind == ENV_EVENT:
                yield {
                    "ts": ts,
                    "type": types[type_id],
                    "source": sources[source_id],
                    "data": dict(zip(keys, [get() for get in getters])),
                    "run": run,
                }
            elif kind == ENV_META:  # fields start with __tag, __seed
                values = [get() for get in getters]
                yield {
                    "run": run,
                    "tag": values[0],
                    "seed": values[1],
                    "ts": ts,
                    "type": types[type_id],
                    "source": sources[source_id],
                    "data": dict(zip(keys[2:], values[2:])),
                }
            else:  # ENV_OPAQUE: the record is its one __raw fragment
                yield take[TAG_JSON]()

    def records(self) -> List[Dict[str, Any]]:
        """All records, decoded (the JSONL-equivalent row view)."""
        return list(self.iter_records())

    # ------------------------------------------------------------------
    # Vectorized accessors (what the query layer builds on)
    # ------------------------------------------------------------------
    def type_id_of(self, etype: str) -> Optional[int]:
        try:
            return self.types.index(etype)
        except ValueError:
            return None

    def type_table(self, etypes: Sequence[str]) -> np.ndarray:
        """Boolean table over type ids: which are of the given types.

        Indexed by a ``type_id`` selection, it masks just those rows.
        """
        keep = np.zeros(len(self.types), dtype=bool)
        for tid in map(self.type_id_of, etypes):
            if tid is not None:
                keep[tid] = True
        return keep

    def mask_of_types(self, etypes: Sequence[str]) -> np.ndarray:
        """Boolean row mask for any of the given event types."""
        return self.type_table(etypes)[self.type_id]

    def field_float(
        self, key: str, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(row_indices, values)`` of float payload field ``key``.

        Gathers over the selected ``rows`` (an index array) for every
        shape that carries ``key`` as a float or int, preserving event
        order: one fancy-indexing pass per shape.  Opaque rows (records
        off the writer's exact envelope) are decoded one by one and
        contribute a numeric ``data[key]``.
        """
        table = self.shape_table
        shape_ids = self.shape_id[rows]
        out_rows: List[np.ndarray] = []
        out_vals: List[np.ndarray] = []
        for sid in np.unique(shape_ids):
            meta = table.meta(int(sid))
            sel = rows[shape_ids == sid]
            slot = meta["slots"].get(key)
            if meta["kind"] == ENV_OPAQUE:
                sel, values = self._opaque_field_float(key, sel)
            elif slot is None or slot[0] not in (TAG_FLOAT, TAG_INT):
                continue
            elif slot[0] == TAG_FLOAT:
                values = self.floats[
                    self.floats_off[sel].astype(np.int64) + slot[1]
                ]
            else:
                values = self.ints[
                    self.ints_off[sel].astype(np.int64) + slot[1]
                ].astype(np.float64)
            out_rows.append(sel)
            out_vals.append(values)
        if not out_rows:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64),
            )
        rows_cat = np.concatenate(out_rows)
        vals_cat = np.concatenate(out_vals)
        order = np.argsort(rows_cat, kind="stable")
        return rows_cat[order], vals_cat[order]

    def _opaque_field_float(
        self, key: str, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``field_float`` over opaque rows, by decoding each one."""
        keep: List[int] = []
        values: List[float] = []
        for row, record in zip(rows.tolist(), self.iter_records(rows)):
            data = record.get("data")
            value = data.get(key) if isinstance(data, dict) else None
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                keep.append(row)
                values.append(float(value))
        return (
            np.asarray(keep, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
        )

    def counts_by_type(
        self, rows: Optional[np.ndarray] = None
    ) -> Dict[str, int]:
        """Event counts keyed by type name (over ``rows`` or all)."""
        type_ids = self.type_id if rows is None else self.type_id[rows]
        counts = np.bincount(type_ids, minlength=len(self.types))
        return {
            self.types[tid]: int(count)
            for tid, count in enumerate(counts)
            if count
        }

    def to_jsonl_lines(self) -> Iterator[str]:
        """Every record as its compact JSON line (no newline).

        The lines are the bytes ``compact_json`` gives for each record
        of :meth:`iter_records`, written straight from the columns
        without decoding a record (see :class:`_JsonlLines`).  This is
        the one JSONL trace writer: ``--trace x.jsonl`` and ``repro
        trace convert`` both write through it.
        """
        lines = _JsonlLines(self)
        n = len(self)
        for start in range(0, n, _DECODE_CHUNK):
            yield from lines.chunk(start, min(start + _DECODE_CHUNK, n))


def _float_text(values: np.ndarray) -> List[Any]:
    """A float column as ``%s`` arguments: the floats themselves
    (``str`` is their JSON text), and json's names for NaN and ±inf."""
    out = values.tolist()
    finite = np.isfinite(values)
    if not finite.all():
        for index in np.flatnonzero(~finite).tolist():
            value = out[index]
            out[index] = (
                "NaN"
                if value != value
                else "Infinity" if value > 0 else "-Infinity"
            )
    return out


def _template(
    items: Iterable[Tuple[str, Any]], columns: List[Tuple[str, int]]
) -> str:
    """The ``%``-template of one JSON object; appends its value columns.

    ``items`` are ``(key, column)`` pairs, where a column is a ``(tag,
    position)`` pair or a nested ``{key: column}`` object.  Keys are
    encoded by :func:`compact_json` (json's own coercion and escaping)
    with every ``%`` doubled; a null value is constant text.
    """
    parts = []
    for key, column in items:
        if isinstance(column, dict):
            value = _template(column.items(), columns)
        elif column[0] == TAG_NULL:
            value = "null"
        else:
            value = "%s"
            columns.append(column)
        parts.append(compact_json(key).replace("%", "%%") + ":" + value)
    return "{" + ",".join(parts) + "}"


class _JsonlLines:
    """JSONL text of a :class:`ColumnarTrace`, formatted column-wise.

    Each shape gets one ``%``-template, built once from its envelope
    and keys, plus the value columns it fills in.  A chunk of rows is
    formatted shape by shape: every column's values are gathered with
    one fancy index and turned into JSON text in one step, each line is
    ``template % row``, and the lines are scattered back into row
    order.  Dictionary entries (types, sources, strings, fragments) are
    JSON-encoded once each; a fragment is re-encoded from its parsed
    value, which is the normalisation :meth:`ColumnarTrace.iter_records`
    plus ``compact_json`` apply.
    """

    def __init__(self, trace: ColumnarTrace) -> None:
        def encoded(values: Iterable[Any]) -> np.ndarray:
            return np.asarray([compact_json(v) for v in values], dtype=object)

        self.trace = trace
        self.table = trace.shape_table
        self.texts = {
            "type": encoded(trace.types),
            "source": encoded(trace.sources),
            TAG_STR: encoded(trace.strings),
            TAG_JSON: encoded(map(json.loads, trace.fragments)),
        }
        self.pools = {
            TAG_INT: (trace.ints, trace.ints_off),
            TAG_BOOL: (trace.ints, trace.ints_off),
            TAG_FLOAT: (trace.floats, trace.floats_off),
            TAG_STR: (trace.strs, trace.strs_off),
            TAG_JSON: (trace.jsons, trace.jsons_off),
        }
        self.plans: Dict[int, Tuple[str, List[Tuple[str, int]]]] = {}

    def chunk(self, start: int, stop: int) -> List[str]:
        """The lines of rows ``start:stop``, in row order."""
        shape_ids = self.trace.shape_id[start:stop]
        present = np.unique(shape_ids).tolist()
        if len(present) == 1:
            return self._lines(present[0], slice(start, stop))
        out = np.empty(stop - start, dtype=object)
        for shape_id in present:
            where = np.flatnonzero(shape_ids == shape_id)
            out[where] = self._lines(shape_id, where + start)
        return out.tolist()

    def _lines(self, shape_id: int, rows: Any) -> List[str]:
        template, columns = self._plan(shape_id)
        texts = [self._text(column, rows) for column in columns]
        return list(map(template.__mod__, zip(*texts)))

    def _plan(self, shape_id: int) -> Tuple[str, List[Tuple[str, int]]]:
        plan = self.plans.get(shape_id)
        if plan is None:
            meta = self.table.meta(shape_id)
            kind, columns = meta["kind"], meta["columns"]
            keys = [key for key, _tag in meta["fields"]]
            value_columns: List[Tuple[str, int]] = []
            if kind == ENV_OPAQUE:  # the record is its one __raw fragment
                template = "%s"
                value_columns.append(columns[0])
            else:
                head = 2 if kind == ENV_META else 0  # __tag, __seed
                # The envelope columns are pseudo-columns (name, 0).
                envelope: Dict[str, Any] = {
                    name: (name, 0) for name in ("run", "ts", "type", "source")
                }
                envelope["data"] = dict(zip(keys[head:], columns[head:]))
                order = _EVENT_KEYS
                if kind == ENV_META:
                    envelope["tag"], envelope["seed"] = columns[:2]
                    order = _META_KEYS
                template = _template(
                    ((key, envelope[key]) for key in order), value_columns
                )
            plan = self.plans[shape_id] = (template, value_columns)
        return plan

    def _text(self, column: Tuple[str, int], rows: Any) -> List[Any]:
        """One column's ``%s`` arguments over ``rows``."""
        tag, position = column
        trace = self.trace
        if tag == "ts":
            return _float_text(trace.ts[rows])
        if tag == "run":
            return trace.run[rows].tolist()
        if tag == "type":
            return self.texts[tag][trace.type_id[rows]].tolist()
        if tag == "source":
            return self.texts[tag][trace.source_id[rows]].tolist()
        pool, offsets = self.pools[tag]
        values = pool[offsets[rows].astype(np.int64) + position]
        if tag == TAG_FLOAT:
            return _float_text(values)
        if tag == TAG_INT:
            return values.tolist()
        if tag == TAG_BOOL:
            return np.where(values != 0, "true", "false").tolist()
        return self.texts[tag][values].tolist()


def merge_batches_sorted(
    traces: Sequence[ColumnarTrace],
) -> ColumnarTrace:
    """Traces merged into one segment, stably re-sorted by timestamp.

    The fleet substrate's per-shard tracers each buffer their own
    events; the merged single-run trace interleaves them by simulated
    time with ties broken by shard order (a stable sort on ``ts``).
    """
    merged = ColumnarTrace.from_batches(traces)
    order = np.argsort(merged.ts, kind="stable")
    for name in _ROW_NAMES:
        setattr(merged, name, getattr(merged, name)[order])
    merged.segments = [_segment(0, len(merged), merged.type_id, merged.ts)]
    return merged
