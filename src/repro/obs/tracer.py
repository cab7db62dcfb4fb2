"""The event tracer and its near-free disabled path.

A :class:`Tracer` encodes the ``(ts, type, source, data)`` emits of one
replication into typed columns as they arrive, one chunk of raw tuples
at a time, and hands them back as one
:class:`~repro.obs.columnar.store.ColumnarTrace`; the session layer
(:mod:`repro.obs.session`) collects the traces and hands them to the
exporters.  Tracing is structured in *levels*:

``spans``
    request lifecycle + system (GC/rejuvenation) events only.
``decisions``
    policy decision + monitor events only.
``all``
    both, plus the raw DES engine events (verbose).

The disabled case is the common case, so instrumented code never calls
into a tracer object per event.  The idiom everywhere in the stack is::

    tracer = self._tracer
    if tracer is not None and tracer.spans:
        tracer.emit(ts, REQUEST_ARRIVAL, "system", index=index)

i.e. one attribute load and one/two boolean checks when tracing is off
-- no event object is built, no call dispatched.  ``tracer.spans``,
``tracer.decisions`` and ``tracer.engine`` are plain attributes
precomputed from the level at construction time.

A fourth flag, ``lifecycle``, says whether the sink wants the
per-request / per-batch microscope events
(:data:`repro.obs.events.LIFECYCLE_TYPES`).  Buffering tracers always
do; constant-overhead sinks such as the live tap decline them, and the
instrumented code then skips those emits -- and the keyword-argument
construction they imply -- entirely.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.obs.columnar.store import (
    _DECODE_CHUNK,
    ColumnarTrace,
    _BatchBuilder,
)

#: Accepted trace levels, in increasing verbosity.
TRACE_LEVELS: Tuple[str, ...] = ("spans", "decisions", "all")


def validate_level(level: str) -> str:
    """Return ``level`` if valid, raise ``ValueError`` otherwise."""
    if level not in TRACE_LEVELS:
        raise ValueError(
            f"unknown trace level {level!r}; expected one of {TRACE_LEVELS}"
        )
    return level


def _taken(
    buffer: List[Tuple[float, str, str, Dict[str, Any]]],
) -> Iterator[Tuple[int, float, str, str, Dict[str, Any]]]:
    """The buffered emits as encoder rows; each tuple and its payload
    dict are released as soon as the encoder has taken them."""
    for at, (ts, etype, source, data) in enumerate(buffer):
        buffer[at] = None  # type: ignore[call-overload]
        yield 0, ts, etype, source, data


class Tracer:
    """The trace events of one replication, encoded as they arrive.

    ``emit`` appends one plain tuple -- no event object is built on the
    hot path.  Every :data:`~repro.obs.columnar.store._DECODE_CHUNK`
    tuples go to the tracer's encoder, which moves them into typed
    columns, so a run holds its trace encoded plus at most one chunk of
    raw tuples; :meth:`payload` encodes the rest.

    Parameters
    ----------
    level:
        ``spans``, ``decisions`` or ``all`` -- which event categories
        the instrumented code should emit.

    Examples
    --------
    >>> tracer = Tracer("decisions")
    >>> (tracer.spans, tracer.decisions, tracer.engine)
    (False, True, False)
    >>> tracer.emit(1.5, "policy.trigger", "policy:sraa", level=4)
    >>> trace = tracer.payload()
    >>> [record["data"]["level"] for record in trace.iter_records()]
    [4]
    """

    __slots__ = (
        "level",
        "spans",
        "decisions",
        "engine",
        "lifecycle",
        "_buffer",
        "_builder",
        "_encoded",
    )

    def __init__(self, level: str = "all") -> None:
        self.level = validate_level(level)
        self.spans = level in ("spans", "all")
        self.decisions = level in ("decisions", "all")
        self.engine = level == "all"
        #: A buffering tracer always wants the per-request microscope.
        self.lifecycle = True
        self._buffer: List[Tuple[float, str, str, Dict[str, Any]]] = []
        self._builder = _BatchBuilder()
        #: Events already handed to the encoder.
        self._encoded = 0

    def emit(self, ts: float, etype: str, source: str, **data: Any) -> None:
        """Record one event (caller has already checked the level flag)."""
        buffer = self._buffer
        buffer.append((ts, etype, source, data))
        if len(buffer) >= _DECODE_CHUNK:
            self._encode_buffer()

    def _encode_buffer(self) -> None:
        """Move the buffered tuples into the encoder (run index 0)."""
        buffer = self._buffer
        self._encoded += len(buffer)
        self._builder.add_events(_taken(buffer))
        buffer.clear()

    def clear(self) -> None:
        """Drop all recorded events (a fresh run starts clean)."""
        self._buffer.clear()
        self._builder = _BatchBuilder()
        self._encoded = 0

    def __len__(self) -> int:
        return self._encoded + len(self._buffer)

    def payload(self) -> ColumnarTrace:
        """What this run attaches to ``RunResult.trace``: its events as
        a one-segment trace (run index 0 -- the session assigns the
        real index at ingest).

        The trace takes the encoder's columns and dictionaries, so the
        tracer hands them over and starts clean.
        """
        self._encode_buffer()
        trace = self._builder.finish()
        self.clear()
        return trace
