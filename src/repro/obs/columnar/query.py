"""The trace query engine behind every trace consumer.

``repro report``, ``repro explain``, offline re-scoring, ``repro
watch --tick`` and ``repro serve`` all ask the same questions of a
trace: which runs does it hold, what does each run's ``run.meta`` say,
how many events of each kind, where are the completions/faults/
triggers, what do the response-time percentiles look like over time.
:class:`ColumnarQuery` (and its per-run :class:`RunView`)
answers them over a :class:`~repro.obs.columnar.store.ColumnarTrace`,
vectorized: counts are one ``bincount``, run grouping splits the rows
at run boundaries, completions are a per-shape float gather, and windowed
percentiles bin a million latencies without building a million dicts.
Sparse questions (the handful of fault/trigger records a narrative
needs) decode just those rows.

There is one engine and one representation.  JSONL is decoded at the
file boundary: :func:`load_query` reads either file format through
:func:`~repro.obs.columnar.io.read_trace`, which streams JSONL lines
straight into the columnar encoder, and :func:`as_query` encodes an
in-memory record list the same way.  A consumer therefore produces
byte-identical output from a record list, its JSONL file and its
``.rcol`` conversion.

Filter semantics (``filtered``): ``run.meta`` records are always kept;
other records must fall inside ``[since, until]`` and -- when
``kinds`` is given -- have a type that equals a requested kind or
extends it as a dotted prefix (``fault`` matches ``fault.injected``).
Records with no type (flight dumps) survive time filters but never a
kind filter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.events import REQUEST_COMPLETE, RUN_META

from .io import read_trace
from .store import ColumnarTrace, ENV_OPAQUE

#: Bins used by the report percentile charts.
DEFAULT_BINS = 60


def exact_percentile(ordered: Sequence[float], q: float) -> float:
    """Exact order-statistic percentile of a pre-sorted sequence.

    The rank is ``round(q * (n - 1))`` with Python's round-half-to-even.
    """
    n = len(ordered)
    if not n:
        return 0.0
    rank = max(0, min(n - 1, round(q * (n - 1))))
    return ordered[int(rank)]


def _kind_matches(etype: str, kinds: Sequence[str]) -> bool:
    return any(
        etype == kind or etype.startswith(kind + ".") for kind in kinds
    )


def is_flight_dump(record: Dict[str, Any]) -> bool:
    """Flight-recorder dump line rather than a trace event?"""
    return (
        "type" not in record and "reason" in record and "events" in record
    )


class RunView:
    """One run's rows in a columnar trace, answered vectorized."""

    __slots__ = ("run_id", "_trace", "_rows")

    def __init__(
        self, run_id: Any, trace: ColumnarTrace, rows: np.ndarray
    ) -> None:
        self.run_id = run_id
        self._trace = trace
        self._rows = rows  # ascending row indices == original order

    @property
    def n_records(self) -> int:
        return int(self._rows.shape[0])

    @property
    def meta(self) -> Optional[Dict[str, Any]]:
        rows = self._type_rows((RUN_META,))
        if not rows.shape[0]:
            return None
        return self._trace.decode(int(rows[0]))

    def _type_rows(self, types: Sequence[str]) -> np.ndarray:
        trace = self._trace
        keep = trace.type_table(types)
        return self._rows[keep[trace.type_id[self._rows]]]

    def counts(self) -> Dict[str, int]:
        counts = self._trace.counts_by_type(self._rows)
        # Rows with no type key (opaque flight dumps) are stored under
        # the empty type and are not events, so they are not counted.
        counts.pop("", None)
        return counts

    def records(
        self, types: Optional[Sequence[str]] = None
    ) -> List[Dict[str, Any]]:
        rows = (
            self._rows if types is None else self._type_rows(types)
        )
        return list(self._trace.iter_records(rows))

    def flight_dumps(self) -> List[Dict[str, Any]]:
        trace = self._trace
        opaque = np.asarray(
            [
                trace.shape_table.shapes[sid][0] == ENV_OPAQUE
                for sid in range(len(trace.shapes))
            ],
            dtype=bool,
        )
        if not opaque.any():
            return []
        rows = self._rows[opaque[trace.shape_id[self._rows]]]
        return [
            record
            for record in trace.iter_records(rows)
            if is_flight_dump(record)
        ]

    def ts_of(self, etype: str) -> List[float]:
        return [float(t) for t in self._trace.ts[self._type_rows((etype,))]]

    def max_ts(self) -> float:
        if not self._rows.shape[0]:
            return 1.0
        return float(self._trace.ts[self._rows].max())

    def completions(self) -> Tuple[np.ndarray, np.ndarray]:
        rows = self._type_rows((REQUEST_COMPLETE,))
        rows, values = self._trace.field_float("response_time", rows)
        return self._trace.ts[rows], values

    def binned_percentiles(
        self, horizon: float, bins: int = DEFAULT_BINS
    ) -> List[Tuple[float, float, float]]:
        """``(bin_mid_ts, p50, p95)`` per non-empty time bin.

        Bin assignment truncates ``ts / width`` as ``int()`` does for
        non-negative floats; per-bin ranks use :func:`exact_percentile`
        over the sorted values.
        """
        ts, rt = self.completions()
        if not ts.shape[0] or horizon <= 0.0:
            return []
        width = horizon / bins
        index = np.minimum(
            bins - 1, (ts / width).astype(np.int64)
        )
        order = np.argsort(index, kind="stable")
        index = index[order]
        values = rt[order]
        out = []
        starts = np.searchsorted(index, np.arange(bins), side="left")
        stops = np.searchsorted(index, np.arange(bins), side="right")
        for b in range(bins):
            chunk = values[starts[b] : stops[b]]
            if not chunk.shape[0]:
                continue
            chunk = np.sort(chunk)
            out.append(
                (
                    (b + 0.5) * width,
                    float(exact_percentile(chunk, 0.50)),
                    float(exact_percentile(chunk, 0.95)),
                )
            )
        return out


class ColumnarQuery:
    """The trace query engine over a :class:`ColumnarTrace`."""

    def __init__(
        self,
        trace: ColumnarTrace,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        self.trace = trace
        self._rows = (
            np.arange(len(trace), dtype=np.int64) if rows is None else rows
        )

    @property
    def n_records(self) -> int:
        return int(self._rows.shape[0])

    def records(self) -> List[Dict[str, Any]]:
        return list(self.trace.iter_records(self._rows))

    def filtered(
        self,
        since: Optional[float] = None,
        until: Optional[float] = None,
        kinds: Optional[Sequence[str]] = None,
    ) -> "ColumnarQuery":
        if since is None and until is None and kinds is None:
            return self
        trace = self.trace
        rows = self._rows
        ts = trace.ts[rows]
        mask = np.ones(rows.shape[0], dtype=bool)
        if since is not None:
            mask &= ts >= since
        if until is not None:
            mask &= ts <= until
        if kinds is not None:
            keep_type = np.asarray(
                [_kind_matches(t, kinds) for t in trace.types],
                dtype=bool,
            )
            mask &= keep_type[trace.type_id[rows]]
        meta_mask = trace.mask_of_types((RUN_META,))[rows]
        mask |= meta_mask
        return ColumnarQuery(trace, rows[mask])

    def run_views(self) -> List[RunView]:
        """One view per run, in run-id order, each over its rows in
        their original order.

        Every trace this repo writes keeps each run's rows together,
        so each view is a slice of this query's rows; only a trace
        whose runs interleave is grouped by a stable sort first.
        """
        rows = self._rows
        runs = self.trace.run[rows]
        starts = _run_starts(runs)
        if np.unique(runs[starts]).shape[0] != starts.shape[0]:
            order = np.argsort(runs, kind="stable")
            rows, runs = rows[order], runs[order]
            starts = _run_starts(runs)
        stops = np.append(starts[1:], runs.shape[0])
        run_ids = runs[starts]
        return [
            RunView(int(run_ids[at]), self.trace, rows[starts[at] : stops[at]])
            for at in np.argsort(run_ids, kind="stable").tolist()
        ]

    def counts(self) -> Dict[str, int]:
        counts = self.trace.counts_by_type(self._rows)
        counts.pop("", None)
        return counts

    def response_times(self) -> np.ndarray:
        rows = self._rows[
            self.trace.mask_of_types((REQUEST_COMPLETE,))[self._rows]
        ]
        _rows, values = self.trace.field_float("response_time", rows)
        return values


def _run_starts(runs: np.ndarray) -> np.ndarray:
    """Where each stretch of equal run ids in ``runs`` starts."""
    if not runs.shape[0]:
        return np.zeros(0, dtype=np.int64)
    return np.append(0, np.flatnonzero(runs[1:] != runs[:-1]) + 1)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------
def as_query(source: Any) -> ColumnarQuery:
    """Whatever the caller holds, as a :class:`ColumnarQuery`.

    An existing query passes through; a :class:`ColumnarTrace` is
    wrapped; a list/tuple of record dicts is encoded with
    :meth:`ColumnarTrace.from_records`.
    """
    if isinstance(source, ColumnarQuery):
        return source
    if isinstance(source, ColumnarTrace):
        return ColumnarQuery(source)
    return ColumnarQuery(ColumnarTrace.from_records(source))


def load_query(path: str) -> ColumnarQuery:
    """Load a trace file (either format, gz-transparent) as a query."""
    return ColumnarQuery(read_trace(path))
