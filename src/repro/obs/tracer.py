"""The event tracer and its near-free disabled path.

A :class:`Tracer` buffers the raw ``(ts, type, source, data)`` emit
tuples of one replication and hands them back encoded as one
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

from typing import Any, Dict, List, Tuple

from repro.obs.columnar.store import ColumnarTrace, encode_events

#: Accepted trace levels, in increasing verbosity.
TRACE_LEVELS: Tuple[str, ...] = ("spans", "decisions", "all")


def validate_level(level: str) -> str:
    """Return ``level`` if valid, raise ``ValueError`` otherwise."""
    if level not in TRACE_LEVELS:
        raise ValueError(
            f"unknown trace level {level!r}; expected one of {TRACE_LEVELS}"
        )
    return level


class Tracer:
    """An in-memory buffer of trace events for one replication.

    ``emit`` appends one plain tuple -- no event object is built on the
    hot path; encoding into typed columns happens once, in
    :meth:`payload`.

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
    )

    def __init__(self, level: str = "all") -> None:
        self.level = validate_level(level)
        self.spans = level in ("spans", "all")
        self.decisions = level in ("decisions", "all")
        self.engine = level == "all"
        #: A buffering tracer always wants the per-request microscope.
        self.lifecycle = True
        self._buffer: List[Tuple[float, str, str, Dict[str, Any]]] = []

    def emit(self, ts: float, etype: str, source: str, **data: Any) -> None:
        """Record one event (caller has already checked the level flag)."""
        self._buffer.append((ts, etype, source, data))

    def clear(self) -> None:
        """Drop all buffered events (a fresh run starts clean)."""
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)

    def payload(self) -> ColumnarTrace:
        """What this run attaches to ``RunResult.trace``: the buffer
        encoded into a one-segment trace (run index 0 -- the session
        assigns the real index at ingest)."""
        return encode_events(self._buffer)
