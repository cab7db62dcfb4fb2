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
``records -> EventBatch -> records`` is identity (pinned by tests), so
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

from repro.obs.events import TraceEvent, compact_json

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

#: Rows per decode chunk (see :meth:`ColumnarTrace.iter_records`).
_DECODE_CHUNK = 4096


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


#: Pool tags of the exact value types that need no range check.
_EXACT_TAGS = {float: TAG_FLOAT, str: TAG_STR, bool: TAG_BOOL}


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
            found = len(self.shapes)
            self.ids[shape] = found
            self.shapes.append(shape)
            self._meta.append(None)
        return found

    def meta(self, shape_id: int) -> dict:
        """Per-shape pool consumption counts and key positions.

        ``counts`` maps tag -> values consumed; ``slots`` maps key ->
        ``(tag, position-within-that-tag's-pool-run)`` (bools share the
        int pool) -- what the vectorized field gather in
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


class EventBatch:
    """One encoded batch of trace records (a segment's worth).

    All dictionaries are *batch-local*; :class:`ColumnarTrace` owns the
    cross-batch consolidation.  Arrays are parallel over events:
    ``run``/``ts``/``type_id``/``source_id``/``shape_id`` plus one
    offset per pool, with the pools appended in event order.
    """

    __slots__ = (
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
    )

    def __init__(self, **arrays: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, arrays[name])

    def __len__(self) -> int:
        return int(self.ts.shape[0])

    def with_run(self, run_index: int) -> "EventBatch":
        """A copy whose every event belongs to ``run_index``.

        The submission-order ingest in
        :class:`~repro.obs.session.TraceSession` assigns run indices in
        the parent; worker-side batches are encoded with run 0.
        """
        arrays = {name: getattr(self, name) for name in self.__slots__}
        arrays["run"] = np.full(len(self), run_index, dtype=np.int64)
        return EventBatch(**arrays)


class _BatchBuilder:
    """Append-side state while encoding records into an EventBatch."""

    def __init__(self) -> None:
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
    def _payload(self, data: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
        """Append one payload's values to the pools; return its fields."""
        fields = []
        ints, floats, strs, jsons = (
            self.ints,
            self.floats,
            self.strs,
            self.jsons,
        )
        for key, value in data.items():
            tag = _EXACT_TAGS.get(type(value)) or _tag_of(value)
            fields.append((key, tag))
            if tag == TAG_FLOAT:
                floats.append(value)
            elif tag == TAG_INT:
                ints.append(value)
            elif tag == TAG_STR:
                strs.append(self.strings.id_of(value))
            elif tag == TAG_BOOL:
                ints.append(1 if value else 0)
            elif tag == TAG_JSON:
                jsons.append(self.fragments.id_of(compact_json(value)))
        return tuple(fields)

    def _begin(self, run: int, ts: float, etype: str, source: str) -> None:
        self.run.append(run)
        self.ts.append(ts)
        self.type_id.append(self.types.id_of(etype))
        self.source_id.append(self.sources.id_of(source))

    def add_event(
        self, run: int, ts: float, etype: str, source: str, data: Dict
    ) -> None:
        self._begin(run, ts, etype, source)
        fields = self._payload(data)
        self.shape_id.append(self.shapes.id_of((ENV_EVENT, fields)))

    def add_meta(self, record: Dict[str, Any]) -> None:
        self._begin(
            record["run"], record["ts"], record["type"], record["source"]
        )
        tag_fragment = self.fragments.id_of(compact_json(record["tag"]))
        self.jsons.append(tag_fragment)
        seed = record["seed"]
        seed_tag = _tag_of(seed)
        if seed_tag == TAG_INT:
            self.ints.append(seed)
        elif seed_tag == TAG_FLOAT:
            self.floats.append(seed)
        elif seed_tag == TAG_STR:
            self.strs.append(self.strings.id_of(seed))
        elif seed_tag == TAG_BOOL:
            self.ints.append(1 if seed else 0)
        elif seed_tag == TAG_JSON:
            self.jsons.append(self.fragments.id_of(compact_json(seed)))
        fields = (("__tag", TAG_JSON), ("__seed", seed_tag))
        fields += self._payload(record["data"])
        self.shape_id.append(self.shapes.id_of((ENV_META, fields)))

    def add_opaque(self, record: Dict[str, Any]) -> None:
        run = record.get("run")
        ts = record.get("ts")
        etype = record.get("type")
        self._begin(
            run if isinstance(run, int) and not isinstance(run, bool) else 0,
            float(ts) if isinstance(ts, (int, float)) else 0.0,
            etype if isinstance(etype, str) else "",
            "",
        )
        self.jsons.append(self.fragments.id_of(compact_json(record)))
        self.shape_id.append(
            self.shapes.id_of((ENV_OPAQUE, (("__raw", TAG_JSON),)))
        )

    # ------------------------------------------------------------------
    def finish(self) -> EventBatch:
        # Each event's pool offsets are the running totals of the values
        # its predecessors' shapes consumed.
        shape_id = np.asarray(self.shape_id, dtype=np.uint32)
        per_event = self.shapes.pool_counts()[shape_id]
        starts = np.cumsum(per_event, axis=0) - per_event
        return EventBatch(
            run=np.asarray(self.run, dtype=np.int64),
            ts=np.asarray(self.ts, dtype=np.float64),
            type_id=np.asarray(self.type_id, dtype=np.uint32),
            source_id=np.asarray(self.source_id, dtype=np.uint32),
            shape_id=shape_id,
            ints_off=starts[:, 0].astype(np.uint32),
            floats_off=starts[:, 1].astype(np.uint32),
            strs_off=starts[:, 2].astype(np.uint32),
            jsons_off=starts[:, 3].astype(np.uint32),
            ints=np.asarray(self.ints, dtype=np.int64),
            floats=np.asarray(self.floats, dtype=np.float64),
            strs=np.asarray(self.strs, dtype=np.uint32),
            jsons=np.asarray(self.jsons, dtype=np.uint32),
            types=self.types.values,
            sources=self.sources.values,
            strings=self.strings.values,
            fragments=self.fragments.values,
            shapes=self.shapes.shapes,
        )


def _classify(record: Dict[str, Any]) -> str:
    """Which envelope a parsed JSONL record matches."""
    keys = tuple(record)
    if keys == _EVENT_KEYS:
        ts, etype, source, data, run = (
            record["ts"],
            record["type"],
            record["source"],
            record["data"],
            record["run"],
        )
        if (
            type(ts) is float
            and isinstance(etype, str)
            and isinstance(source, str)
            and isinstance(data, dict)
            and type(run) is int
            and _I64_MIN <= run <= _I64_MAX
        ):
            return ENV_EVENT
    elif keys == _META_KEYS:
        if (
            type(record["run"]) is int
            and isinstance(record["tag"], list)
            and type(record["ts"]) is float
            and isinstance(record["type"], str)
            and isinstance(record["source"], str)
            and isinstance(record["data"], dict)
        ):
            return ENV_META
    return ENV_OPAQUE


def encode_records(records: Iterable[Dict[str, Any]]) -> EventBatch:
    """Encode parsed JSONL records (in order, streamed) into one batch."""
    builder = _BatchBuilder()
    for record in records:
        kind = _classify(record)
        if kind == ENV_EVENT:
            builder.add_event(
                record["run"],
                record["ts"],
                record["type"],
                record["source"],
                record["data"],
            )
        elif kind == ENV_META:
            builder.add_meta(record)
        else:
            builder.add_opaque(record)
    return builder.finish()


def encode_events(
    events: Sequence[Tuple[float, str, str, Dict[str, Any]]],
    run: int = 0,
) -> EventBatch:
    """Encode raw emit tuples (the :class:`~repro.obs.tracer.Tracer`
    buffer)."""
    builder = _BatchBuilder()
    for ts, etype, source, data in events:
        builder.add_event(run, ts, etype, source, data)
    return builder.finish()


# ---------------------------------------------------------------------------
# The consolidated store
# ---------------------------------------------------------------------------
class ColumnarTrace:
    """A whole trace: consolidated columns, global dictionaries, and a
    segment index.

    Built from batches (:meth:`from_batches`) by concatenating columns
    and remapping each batch's local dictionary ids onto the global
    dictionaries with one ``np.take`` per column -- no record is
    re-parsed, which is what makes the submission-order merge across
    process-pool workers effectively free.  ``segments`` keeps one
    ``(start, stop, ts_min, ts_max, kind_mask)`` row per source batch:
    the on-disk footer index serializes it so readers can skip whole
    segments on time-range or kind filters.
    """

    __slots__ = (
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
        "_shape_table",
    )

    def __init__(self, **arrays: Any) -> None:
        for name in self.__slots__:
            if name != "_shape_table":
                setattr(self, name, arrays[name])
        self._shape_table: Optional[ShapeTable] = None

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

    # ------------------------------------------------------------------
    @classmethod
    def from_batches(
        cls, batches: Sequence[EventBatch]
    ) -> "ColumnarTrace":
        """Consolidate batches (in submission order) into one trace."""
        types = _Dict()
        sources = _Dict()
        strings = _Dict()
        fragments = _Dict()
        shapes = ShapeTable()

        columns: Dict[str, List[np.ndarray]] = {
            name: []
            for name in (
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
            )
        }
        segments: List[Tuple[int, int, float, float, int]] = []
        start = 0
        pool_base = {"ints": 0, "floats": 0, "strs": 0, "jsons": 0}
        for batch in batches:
            n = len(batch)
            # Dictionary id remaps: local id -> global id, vectorized.
            type_map = np.asarray(
                [types.id_of(v) for v in batch.types], dtype=np.uint32
            )
            source_map = np.asarray(
                [sources.id_of(v) for v in batch.sources], dtype=np.uint32
            )
            string_map = np.asarray(
                [strings.id_of(v) for v in batch.strings], dtype=np.uint32
            )
            fragment_map = np.asarray(
                [fragments.id_of(v) for v in batch.fragments],
                dtype=np.uint32,
            )
            # Shapes remap through the dictionary-reconciled signature:
            # a shape's identity is its (envelope, fields), which is
            # dictionary-independent, so the table merges directly.
            shape_map = np.asarray(
                [shapes.id_of(shape) for shape in batch.shapes],
                dtype=np.uint32,
            )
            columns["run"].append(batch.run)
            columns["ts"].append(batch.ts)
            columns["type_id"].append(
                type_map[batch.type_id] if len(type_map) else batch.type_id
            )
            columns["source_id"].append(
                source_map[batch.source_id]
                if len(source_map)
                else batch.source_id
            )
            columns["shape_id"].append(
                shape_map[batch.shape_id]
                if len(shape_map)
                else batch.shape_id
            )
            for pool, off in (
                ("ints", "ints_off"),
                ("floats", "floats_off"),
                ("strs", "strs_off"),
                ("jsons", "jsons_off"),
            ):
                base = pool_base[pool]
                offsets = getattr(batch, off)
                columns[off].append(
                    (offsets.astype(np.uint64) + base).astype(np.uint64)
                )
                pool_base[pool] += int(getattr(batch, pool).shape[0])
            columns["ints"].append(batch.ints)
            columns["floats"].append(batch.floats)
            columns["strs"].append(
                string_map[batch.strs] if len(string_map) else batch.strs
            )
            columns["jsons"].append(
                fragment_map[batch.jsons]
                if len(fragment_map)
                else batch.jsons
            )
            mask = 0
            if n:
                for tid in np.unique(
                    type_map[batch.type_id]
                    if len(type_map)
                    else batch.type_id
                ):
                    mask |= 1 << int(tid)
                ts_min = float(batch.ts.min())
                ts_max = float(batch.ts.max())
            else:
                ts_min = ts_max = 0.0
            segments.append((start, start + n, ts_min, ts_max, mask))
            start += n

        def cat(name: str, dtype) -> np.ndarray:
            parts = columns[name]
            if not parts:
                return np.zeros(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        return cls(
            run=cat("run", np.int64),
            ts=cat("ts", np.float64),
            type_id=cat("type_id", np.uint32),
            source_id=cat("source_id", np.uint32),
            shape_id=cat("shape_id", np.uint32),
            ints_off=cat("ints_off", np.uint64),
            floats_off=cat("floats_off", np.uint64),
            strs_off=cat("strs_off", np.uint64),
            jsons_off=cat("jsons_off", np.uint64),
            ints=cat("ints", np.int64),
            floats=cat("floats", np.float64),
            strs=cat("strs", np.uint32),
            jsons=cat("jsons", np.uint32),
            types=types.values,
            sources=sources.values,
            strings=strings.values,
            fragments=fragments.values,
            shapes=shapes.shapes,
            segments=segments,
        )

    @classmethod
    def from_records(
        cls, records: Iterable[Dict[str, Any]]
    ) -> "ColumnarTrace":
        """Encode already-parsed JSONL records into one-segment store."""
        return cls.from_batches([encode_records(records)])

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

    def mask_of_types(self, etypes: Sequence[str]) -> np.ndarray:
        """Boolean row mask for any of the given event types."""
        ids = [
            tid
            for tid in (self.type_id_of(t) for t in etypes)
            if tid is not None
        ]
        if not ids:
            return np.zeros(len(self), dtype=bool)
        return np.isin(self.type_id, np.asarray(ids, dtype=np.uint32))

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
        """Every record as its compact JSON line (no newline)."""
        for record in self.iter_records():
            yield compact_json(record)


class ColumnarRun:
    """One run's trace payload: a picklable column batch.

    :meth:`repro.obs.tracer.Tracer.payload` returns one, and it rides
    back on ``RunResult.trace``.  Pickling arrays is a buffer copy, so
    a million-event replication returns from a pool worker without a
    million object serializations, and the parent merges runs by
    array concatenation (:meth:`ColumnarTrace.from_batches`).
    Iterating yields :class:`~repro.obs.events.TraceEvent` (decoded on
    demand); exporters read :attr:`trace` and stay columnar.
    """

    __slots__ = ("batch", "_trace")

    def __init__(self, batch: EventBatch) -> None:
        self.batch = batch
        self._trace: Optional[ColumnarTrace] = None

    def __getstate__(self) -> EventBatch:
        return self.batch

    def __setstate__(self, batch: EventBatch) -> None:
        self.batch = batch
        self._trace = None

    def __len__(self) -> int:
        return len(self.batch)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarRun):
            return NotImplemented
        return self.trace.records() == other.trace.records()

    __hash__ = None  # type: ignore[assignment]

    @property
    def trace(self) -> ColumnarTrace:
        """The batch consolidated into a queryable single-segment trace."""
        if self._trace is None:
            self._trace = ColumnarTrace.from_batches([self.batch])
        return self._trace

    def __iter__(self) -> Iterator[TraceEvent]:
        for record in self.trace.iter_records():
            yield TraceEvent(
                record["ts"], record["type"], record["source"], record["data"]
            )


def merge_batches_sorted(
    batches: Sequence[EventBatch],
) -> EventBatch:
    """Batches merged into one, stably re-sorted by timestamp.

    The fleet substrate's per-shard tracers each buffer their own
    events; the merged single-run trace interleaves them by simulated
    time with ties broken by shard order (a stable sort on ``ts``).
    """
    trace = ColumnarTrace.from_batches(batches)
    order = np.argsort(trace.ts, kind="stable")
    arrays = {
        "run": trace.run[order],
        "ts": trace.ts[order],
        "type_id": trace.type_id[order],
        "source_id": trace.source_id[order],
        "shape_id": trace.shape_id[order],
        "ints_off": trace.ints_off[order].astype(np.uint32),
        "floats_off": trace.floats_off[order].astype(np.uint32),
        "strs_off": trace.strs_off[order].astype(np.uint32),
        "jsons_off": trace.jsons_off[order].astype(np.uint32),
        "ints": trace.ints,
        "floats": trace.floats,
        "strs": trace.strs,
        "jsons": trace.jsons,
        "types": trace.types,
        "sources": trace.sources,
        "strings": trace.strings,
        "fragments": trace.fragments,
        "shapes": trace.shapes,
    }
    return EventBatch(**arrays)
