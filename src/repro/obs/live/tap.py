"""The live tap: streaming aggregation fed by the tracer emit stream.

A :class:`LiveTap` implements the tracer protocol the instrumented
code already speaks (``spans`` / ``decisions`` / ``engine`` flags plus
``emit``), so turning live telemetry on costs the *same* hot-path
idiom as tracing -- one attribute load and a flag check when off --
with none of tracing's unbounded buffering: events update the
constant-memory aggregators of :mod:`~repro.obs.live.sketches` (and
optionally a :class:`~repro.obs.live.recorder.FlightRecorder` ring)
and are then forgotten.

Configuration is a picklable :class:`LiveSpec` carried on the
:class:`~repro.exec.jobs.ReplicationJob`; the worker-side tap's final
:class:`LiveAggregator` state rides home on ``RunResult.live`` and
folds across replications in submission order
(:func:`merge_live`) -- bit-identically between the serial and
process-pool backends.

When both full tracing *and* live telemetry are requested, a
:class:`TeeTracer` fans the emit stream out to the buffering
:class:`~repro.obs.tracer.Tracer` and the tap.
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.obs.events import (
    FAULT_CLEARED,
    FAULT_INJECTED,
    LIFECYCLE_TYPES,
    POLICY_LEVEL,
    POLICY_TRIGGER,
    REQUEST_COMPLETE,
    REQUEST_LOSS,
    SYSTEM_GC,
    SYSTEM_REJUVENATION,
    category_of,
)
from repro.obs.live.recorder import FlightRecorder, RecorderSpec
from repro.obs.live.sketches import (
    DEFAULT_EPS,
    EwmaRate,
    GKSketch,
    RollingWindow,
)
from repro.obs.tracer import Tracer
from repro.stats.running import OnlineMoments

#: Default dashboard quantiles.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)

#: Event types the aggregator counts (beyond response-time updates).
#: A frozenset: membership is checked on every emitted event.
COUNTED_TYPES = frozenset(
    {
        REQUEST_COMPLETE,
        REQUEST_LOSS,
        SYSTEM_GC,
        SYSTEM_REJUVENATION,
        FAULT_INJECTED,
        FAULT_CLEARED,
        POLICY_TRIGGER,
    }
)


@dataclass(frozen=True)
class LiveSpec:
    """Picklable live-telemetry configuration (rides on the job).

    Parameters
    ----------
    quantiles:
        Quantiles the snapshot reports (the sketch answers any).
    eps:
        Rank-error budget of the GK sketch.
    window:
        Rolling-window size for the recent-past statistics.
    ewma_tau_s:
        Time constant of the completion-rate meter (simulated seconds).
    aggregate:
        Run the streaming aggregators (sketch, window, rate, counts).
        ``False`` leaves only the flight recorder: the cheapest
        always-on configuration, for when forensics are wanted but the
        dashboard statistics are not.
    recorder:
        Optional flight-recorder configuration; ``None`` disables the
        ring.
    display:
        Optional live display (e.g. ``repro top``'s renderer) called
        with snapshots as events stream through.  A display makes the
        spec unpicklable on purpose: the process-pool backend then runs
        the job in the parent process, which is exactly where a
        terminal renderer must live.
    """

    quantiles: Tuple[float, ...] = DEFAULT_QUANTILES
    eps: float = DEFAULT_EPS
    window: int = 256
    ewma_tau_s: float = 60.0
    aggregate: bool = True
    recorder: Optional[RecorderSpec] = None
    display: Optional[Any] = None

    def build(self) -> "LiveTap":
        """A fresh tap for one replication."""
        return LiveTap(self)

    def without_display(self) -> "LiveSpec":
        """A picklable copy (display handles never cross processes)."""
        if self.display is None:
            return self
        return replace(self, display=None)


class LiveAggregator:
    """The mergeable live state of one (or many folded) replications."""

    __slots__ = (
        "quantiles",
        "moments",
        "sketch",
        "window",
        "rate",
        "counts",
        "level",
        "last_ts",
    )

    def __init__(self, spec: LiveSpec) -> None:
        self.quantiles = tuple(spec.quantiles)
        self.moments = OnlineMoments()
        self.sketch = GKSketch(eps=spec.eps)
        self.window = RollingWindow(size=spec.window)
        self.rate = EwmaRate(tau_s=spec.ewma_tau_s)
        self.counts: Dict[str, int] = {}
        #: Current detector bucket level (from ``policy.level`` events).
        self.level = 0
        self.last_ts = 0.0

    # ------------------------------------------------------------------
    def observe_response_time(self, ts: float, value: float) -> None:
        """Fold one completed response time into every aggregator."""
        self.moments.push(value)
        self.sketch.update(value)
        self.window.push(value)
        self.rate.update(ts)
        self.last_ts = ts

    def count(self, etype: str) -> None:
        self.counts[etype] = self.counts.get(etype, 0) + 1

    # ------------------------------------------------------------------
    def merge(self, other: "LiveAggregator") -> "LiveAggregator":
        """A new aggregator folding ``other`` after ``self``.

        Call in job submission order: every constituent merge is
        deterministic, so serial and process-pool folds agree bit for
        bit.
        """
        spec = LiveSpec(
            quantiles=self.quantiles,
            eps=max(self.sketch.eps, other.sketch.eps),
            window=max(self.window.size, other.window.size),
            ewma_tau_s=max(self.rate.tau_s, other.rate.tau_s),
        )
        merged = LiveAggregator(spec)
        merged.moments = self.moments.merge(other.moments)
        merged.sketch = self.sketch.merge(other.sketch)
        merged.window = self.window.merge(other.window)
        merged.rate = self.rate.merge(other.rate)
        counts = dict(self.counts)
        for etype, value in other.counts.items():
            counts[etype] = counts.get(etype, 0) + value
        merged.counts = counts
        merged.level = other.level
        merged.last_ts = max(self.last_ts, other.last_ts)
        return merged

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict dashboard view (JSON-serialisable)."""
        moments = self.moments
        out: Dict[str, Any] = {
            "ts": self.last_ts,
            "completed": self.counts.get(REQUEST_COMPLETE, 0),
            "lost": self.counts.get(REQUEST_LOSS, 0),
            "gc": self.counts.get(SYSTEM_GC, 0),
            "rejuvenations": self.counts.get(SYSTEM_REJUVENATION, 0),
            "faults": self.counts.get(FAULT_INJECTED, 0),
            "triggers": self.counts.get(POLICY_TRIGGER, 0),
            "level": self.level,
            "rate_per_s": self.rate.rate(),
            "rt_mean": moments.mean if moments.count else 0.0,
            "rt_std": moments.std,
            "rt_max": moments.maximum if moments.count else 0.0,
            "window_mean": self.window.mean,
            "window_autocorr": self.window.autocorr_lag1(),
        }
        if self.sketch.count:
            out["rt_quantiles"] = {
                f"p{int(q * 100):02d}": self.sketch.query(q)
                for q in self.quantiles
            }
        else:
            out["rt_quantiles"] = {}
        return out


class LiveTap:
    """A tracer-protocol sink updating a :class:`LiveAggregator`.

    The flags mirror :class:`~repro.obs.tracer.Tracer`: instrumented
    code checks ``tap.spans`` / ``tap.decisions`` before emitting, so
    the tap receives span and decision events but never asks for the
    per-DES-event firehose (``engine`` stays ``False``).  Crucially the
    tap also sets ``lifecycle = False``: it aggregates completions and
    counts incidents, so it has no use for the per-request microscope
    (arrivals, enqueues, service starts, per-batch comparisons) -- and
    declining those events spares the instrumented code their call-site
    cost, which is what keeps always-on telemetry within the overhead
    budget.
    """

    __slots__ = (
        "spec",
        "aggregator",
        "recorder",
        "display",
        "spans",
        "decisions",
        "engine",
        "lifecycle",
        "level",
        "_aggregate",
        "_rec_append",
        "_rec_triggers",
        "_rec_slo",
        "_rec_dump",
    )

    #: Trace level stamped on jobs when only live telemetry is on --
    #: the tap needs spans and decisions, never engine events.
    level_name = "decisions"

    def __init__(self, spec: LiveSpec) -> None:
        self.spec = spec
        self.aggregator = LiveAggregator(spec)
        self.recorder: Optional[FlightRecorder] = (
            spec.recorder.build() if spec.recorder is not None else None
        )
        self.display = spec.display
        self.spans = True
        self.decisions = True
        self.engine = False
        self.lifecycle = False
        self.level = "live"
        # A display renders aggregator snapshots, so it implies them.
        self._aggregate = spec.aggregate or spec.display is not None
        # The recorder's hot path is inlined into :meth:`emit` (a
        # method call per event is measurable at ~20k events/run), so
        # pre-bind its internals here.  ``deque.append`` stays valid
        # across ``clear()`` because ``deque.clear`` keeps the object.
        recorder = self.recorder
        if recorder is not None:
            self._rec_append = recorder._ring.append
            self._rec_triggers = recorder._triggers
            self._rec_slo = recorder._slo
            self._rec_dump = recorder._dump
        else:
            self._rec_append = None
            self._rec_triggers = frozenset()
            self._rec_slo = None
            self._rec_dump = None

    def emit(self, ts: float, etype: str, source: str, **data: Any) -> None:
        """Consume one event: aggregate, record, maybe render.

        This is the hot path -- but because the tap declines
        ``lifecycle`` events, it fires only for the macroscopic record:
        completions, losses, GC, rejuvenations, faults, and the rare
        policy transitions.  With ``aggregate=False`` an event costs
        one flag check plus the recorder's tuple append.
        """
        if self._aggregate:
            if etype in COUNTED_TYPES:
                aggregator = self.aggregator
                if etype == REQUEST_COMPLETE:
                    aggregator.observe_response_time(
                        ts, data.get("response_time", 0.0)
                    )
                else:
                    aggregator.last_ts = ts
                aggregator.count(etype)
            elif etype == POLICY_LEVEL:
                aggregator = self.aggregator
                aggregator.level = data.get("level", aggregator.level)
                aggregator.last_ts = ts
        append = self._rec_append
        if append is not None:
            # Inlined FlightRecorder.record: a tuple append, a set
            # lookup, and (for completions under an SLO) one compare.
            append((ts, etype, source, data))
            if etype in self._rec_triggers:
                self._rec_dump(etype, ts)
            elif (
                self._rec_slo is not None
                and etype == REQUEST_COMPLETE
                and data.get("response_time", 0.0) > self._rec_slo
            ):
                self._rec_dump("slo_breach", ts)
        if self.display is not None:
            self.display.tick(self)

    def payload(self) -> Tuple[()]:
        """The tap buffers nothing; the aggregates ARE the record."""
        return ()

    def clear(self) -> None:
        """Reset all live state (a fresh run starts clean)."""
        self.aggregator = LiveAggregator(self.spec)
        if self.recorder is not None:
            self.recorder.clear()

    def freeze(self) -> LiveAggregator:
        """The aggregator to ship home on ``RunResult.live``."""
        return self.aggregator

    def dumps(self) -> Tuple[Any, ...]:
        """The flight-recorder dumps (empty without a recorder)."""
        if self.recorder is None:
            return ()
        return tuple(self.recorder.dumps)


class TeeTracer:
    """Fans one emit stream out to several tracer-protocol sinks.

    Used when a run wants both a full buffering
    :class:`~repro.obs.tracer.Tracer` and a :class:`LiveTap`.  The
    category flags (including ``lifecycle``) are the OR of the sinks'
    flags, and each sink only receives the event classes it asked for:
    a spans-only sink never sees decision events, and a sink that
    declined the per-request microscope never sees lifecycle events --
    so the tap behaves identically whether or not a full tracer rides
    alongside it (flight dumps stay bit-identical either way).
    """

    __slots__ = ("sinks", "spans", "decisions", "engine", "lifecycle", "level")

    def __init__(self, sinks: Sequence[Any]) -> None:
        if not sinks:
            raise ValueError("need at least one sink")
        self.sinks = tuple(sinks)
        self.spans = any(sink.spans for sink in self.sinks)
        self.decisions = any(sink.decisions for sink in self.sinks)
        self.engine = any(sink.engine for sink in self.sinks)
        self.lifecycle = any(
            getattr(sink, "lifecycle", True) for sink in self.sinks
        )
        self.level = "tee"

    def emit(self, ts: float, etype: str, source: str, **data: Any) -> None:
        category = category_of(etype)
        lifecycle = etype in LIFECYCLE_TYPES
        for sink in self.sinks:
            if lifecycle and not getattr(sink, "lifecycle", True):
                continue
            if (
                (category == "span" and sink.spans)
                or (category == "decision" and sink.decisions)
                or (category == "engine" and sink.engine)
                or category == "meta"
            ):
                sink.emit(ts, etype, source, **data)

    def payload(self) -> Any:
        """The buffering :class:`~repro.obs.tracer.Tracer` sink's
        payload (empty when no sink buffers)."""
        for sink in self.sinks:
            if isinstance(sink, Tracer):
                return sink.payload()
        return ()

    def clear(self) -> None:
        for sink in self.sinks:
            sink.clear()


def compose_tracers(*sinks: Optional[Any]) -> Optional[Any]:
    """``None`` / the single sink / a :class:`TeeTracer` over several."""
    present = [sink for sink in sinks if sink is not None]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    return TeeTracer(present)


@contextlib.contextmanager
def amortised_gc(gen0_threshold: int = 20_000) -> Iterator[None]:
    """Raise the cyclic collector's gen0 threshold for a block.

    The tap's ring stores one tuple and one payload dict per event --
    tens of thousands of tracked allocations per run -- and each batch
    of ~700 of them triggers a young-generation collection pass.  That
    amplification, not the appends themselves, is roughly half of the
    recorder's measured overhead.  Telemetry-heavy Python services
    routinely raise the gen0 threshold to amortise collector passes
    over larger batches; the job runner wraps live-telemetry runs in
    this guard for the same reason.  Peak memory grows by at most the
    threshold's worth of young garbage (a few MB).  Thresholds are
    restored on exit; a fully disabled collector is left alone.
    """
    if not gc.isenabled():
        yield
        return
    gen0, gen1, gen2 = gc.get_threshold()
    gc.set_threshold(max(gen0, gen0_threshold), gen1, gen2)
    try:
        yield
    finally:
        gc.set_threshold(gen0, gen1, gen2)


def merge_live(aggregators) -> Optional[LiveAggregator]:
    """Fold per-run aggregators in submission order (None-safe)."""
    merged: Optional[LiveAggregator] = None
    for aggregator in aggregators:
        if aggregator is None:
            continue
        merged = (
            aggregator if merged is None else merged.merge(aggregator)
        )
    return merged


def live_outcome(aggregator: LiveAggregator) -> Dict[str, Any]:
    """The aggregator's ledger-entry block: snapshot plus sketch size.

    Everything in the snapshot is deterministic for a given event
    stream (submission-order merging keeps it so across backends), so
    the block can sit in the *outcomes* section of a run ledger entry.
    The sketch metadata records the error budget the quantiles carry.
    """
    snapshot = aggregator.snapshot()
    snapshot["sketch"] = {
        "count": aggregator.sketch.count,
        "eps": aggregator.sketch.eps,
        "tuples": aggregator.sketch.tuples,
    }
    return snapshot
