"""The typed trace record and the event taxonomy.

Every observable thing that happens in a run -- a request moving
through the system, a policy weighing a batch mean against a bucket
target, a garbage collection stalling the JVM -- becomes one
:class:`TraceEvent`: a timestamp on the *simulated* clock, a dotted
event type from the taxonomy below, the emitting source, and a plain
payload dict.  Records are deliberately dumb data: they pickle across
process boundaries unchanged (the process-pool backend carries them
back inside :class:`~repro.ecommerce.metrics.RunResult`) and serialise
to one JSON object per line.

Event taxonomy
--------------

Request lifecycle spans (category ``span``):

``request.arrival``      a transaction entered the system (or was refused)
``request.enqueue``      it joined a node's FCFS queue
``request.service_start``  it obtained a CPU (payload carries the wait)
``request.complete``     it finished; payload carries the response time
``request.loss``         it was killed (rejuvenation) or refused (downtime)

System events (category ``span`` -- they shape the spans):

``system.gc``            a full garbage collection with its pause and
                         the garbage reclaimed
``system.rejuvenation``  capacity restoration, with the jobs lost

Fault-injection events (category ``span`` -- emitted by
:mod:`repro.faults` injections through the system under test):

``fault.injected``       a scripted fault took effect; payload carries
                         its kind (``workload_shift``, ``surge``,
                         ``slowdown``, ``contamination``, ``crash``,
                         ``hang``, ``aging``, ``erosion``, ...) and
                         parameters
``fault.cleared``        a transient fault ended (surge over, node
                         restarted, contamination removed)

Policy decision events (category ``decision``):

``policy.batch``         a batch boundary: the batch mean was compared
                         against the active target (one ball added or
                         removed from the current bucket)
``policy.level``         a bucket overflowed/underflowed: level change
``policy.resize``        SARAA recomputed its batch size
``policy.trigger``       rejuvenation was demanded; payload carries the
                         full cause (bucket index, batch mean,
                         threshold, sample size, causing batch seq)
``policy.reset``         detection state was cleared externally

Engine events (category ``engine``; only at trace level ``all``):

``des.event``            one discrete event fired (kind + sequence no.)

Run bookkeeping (written by the session, not by tracers):

``run.meta``             one per replication: tag, seed, run summary
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

#: ``value`` as compact JSON (the trace writer's separators).  Built
#: once: ``json.dumps`` with non-default options builds an encoder per
#: call, and ``json.dump`` encodes in pure Python.
compact_json = json.JSONEncoder(separators=(",", ":")).encode


# ---------------------------------------------------------------------------
# Event type constants
# ---------------------------------------------------------------------------
REQUEST_ARRIVAL = "request.arrival"
REQUEST_ENQUEUE = "request.enqueue"
REQUEST_SERVICE_START = "request.service_start"
REQUEST_COMPLETE = "request.complete"
REQUEST_LOSS = "request.loss"
SYSTEM_GC = "system.gc"
SYSTEM_REJUVENATION = "system.rejuvenation"
FAULT_INJECTED = "fault.injected"
FAULT_CLEARED = "fault.cleared"

POLICY_BATCH = "policy.batch"
POLICY_LEVEL = "policy.level"
POLICY_RESIZE = "policy.resize"
POLICY_TRIGGER = "policy.trigger"
POLICY_RESET = "policy.reset"

DES_EVENT = "des.event"
RUN_META = "run.meta"

#: Event types emitted when request-lifecycle tracing is on.
SPAN_TYPES: Tuple[str, ...] = (
    REQUEST_ARRIVAL,
    REQUEST_ENQUEUE,
    REQUEST_SERVICE_START,
    REQUEST_COMPLETE,
    REQUEST_LOSS,
    SYSTEM_GC,
    SYSTEM_REJUVENATION,
    FAULT_INJECTED,
    FAULT_CLEARED,
)

#: Event types emitted when policy-decision tracing is on.
DECISION_TYPES: Tuple[str, ...] = (
    POLICY_BATCH,
    POLICY_LEVEL,
    POLICY_RESIZE,
    POLICY_TRIGGER,
    POLICY_RESET,
)

#: Event types only emitted at trace level ``all``.
ENGINE_TYPES: Tuple[str, ...] = (DES_EVENT,)

#: The per-request / per-batch *microscope*: high-frequency events a
#: buffering trace wants for offline forensics, but which always-on
#: telemetry must not pay for -- at ~4 events per transaction their
#: call-site cost alone (keyword construction, payload reads) rivals
#: the cost of simulating the transaction.  Sinks advertise whether
#: they want them via the tracer protocol's ``lifecycle`` flag;
#: instrumented code skips these emits entirely when no sink does.
LIFECYCLE_TYPES: frozenset = frozenset(
    {
        REQUEST_ARRIVAL,
        REQUEST_ENQUEUE,
        REQUEST_SERVICE_START,
        POLICY_BATCH,
    }
)


def category_of(etype: str) -> str:
    """``span`` / ``decision`` / ``engine`` / ``meta`` for an event type."""
    if etype in SPAN_TYPES:
        return "span"
    if etype in DECISION_TYPES:
        return "decision"
    if etype in ENGINE_TYPES:
        return "engine"
    return "meta"


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation of the running system.

    Parameters
    ----------
    ts:
        Simulated time, in seconds (the DES clock -- not wall-clock).
    etype:
        Dotted event type from the module taxonomy.
    source:
        The emitting component, e.g. ``node0``, ``policy:sraa``,
        ``system``.
    data:
        Event payload: plain JSON-serialisable values only.
    """

    ts: float
    etype: str
    source: str
    data: Dict[str, Any] = field(default_factory=dict)

    @property
    def category(self) -> str:
        """The taxonomy category this event belongs to."""
        return category_of(self.etype)

    def to_dict(self) -> Dict[str, Any]:
        """The JSONL representation (without run bookkeeping)."""
        return {
            "ts": self.ts,
            "type": self.etype,
            "source": self.source,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceEvent":
        """Rebuild an event from its :meth:`to_dict` representation."""
        return cls(
            ts=float(payload["ts"]),
            etype=str(payload["type"]),
            source=str(payload["source"]),
            data=dict(payload.get("data", {})),
        )
