"""Human-readable timelines from a trace: ``repro explain``.

The paper's industrial story is an *explainability* failure -- the
operators could not see why the system was degrading.  ``explain``
answers the converse question for our reproduction: for every
rejuvenation in a trace, *why did it fire?*  It joins each
``policy.trigger`` event back to the batch decision that caused it and
prints the bucket index, the batch mean, the active threshold and the
sample size, plus the bucket-climb path that led there.

Traces load through the shared query layer
(:mod:`repro.obs.columnar.query`), so JSONL and columnar files narrate
identically, and ``--since`` / ``--until`` / ``--kind`` filters slice
the timeline before narration (``run.meta`` headers always survive;
kind filters match a type exactly or as a dotted prefix, so ``fault``
keeps both ``fault.injected`` and ``fault.cleared``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.events import (
    FAULT_CLEARED,
    FAULT_INJECTED,
    POLICY_LEVEL,
    POLICY_TRIGGER,
    REQUEST_COMPLETE,
    REQUEST_LOSS,
    SYSTEM_GC,
    SYSTEM_REJUVENATION,
)

#: The event types the per-run narrative loop walks, in trace order.
_NARRATIVE_TYPES = (
    POLICY_LEVEL,
    FAULT_INJECTED,
    FAULT_CLEARED,
    POLICY_TRIGGER,
)

#: The machine-readable timeline walks the narrative types plus the
#: rejuvenations themselves (the prose narrative infers those from the
#: triggers; a downstream consumer should not have to).
_TIMELINE_TYPES = _NARRATIVE_TYPES + (SYSTEM_REJUVENATION,)


def event_record(
    ts: float,
    kind: str,
    detail: Optional[Dict[str, Any]] = None,
    run: Optional[Any] = None,
    source: Optional[str] = None,
) -> Dict[str, Any]:
    """One machine-readable timeline record.

    This is the shared evidence shape: ``repro explain --json`` emits
    it, and the sentinel alert engine attaches the same records as
    incident evidence, so a consumer parses one format everywhere.
    """
    record: Dict[str, Any] = {
        "record": "event",
        "ts": float(ts),
        "kind": kind,
        "detail": dict(detail) if detail else {},
    }
    if run is not None:
        record["run"] = run
    if source is not None:
        record["source"] = source
    return record


def _format_tag(tag: Any) -> str:
    if not tag:
        return ""
    return "(" + ", ".join(str(part) for part in tag) + ")"


def _summary_line(summary: Dict[str, Any]) -> str:
    parts = []
    for key, suffix in (
        ("arrivals", " arrivals"),
        ("completed", " completed"),
        ("lost", " lost"),
        ("gc_count", " GCs"),
        ("rejuvenations", " rejuvenations"),
    ):
        if key in summary:
            parts.append(f"{summary[key]:g}{suffix}")
    if "avg_response_time" in summary:
        parts.append(f"avg RT {summary['avg_response_time']:.3f}s")
    return ", ".join(parts)


def _format_cause(data: Dict[str, Any]) -> str:
    """A trigger's cause, whatever its shape.

    The paper's policies emit the classic batch-mean-vs-threshold
    cause; the :mod:`repro.detect` family emits free-form mappings
    (entropy/reference, projection/bound, ...).  Classic causes keep
    their historical phrasing; anything else is rendered generically
    as ``key=value`` pairs so no detector's evidence is dropped.
    """
    if "batch_mean" in data and "threshold" in data:
        return (
            f"bucket {data.get('level', 0)} overflowed; "
            f"batch mean {data.get('batch_mean', float('nan')):.3f}s > "
            f"threshold {data.get('threshold', float('nan')):.3f}s "
            f"(n={data.get('sample_size', '?')}"
        ) + (
            f", batch #{data['batch_seq']})"
            if "batch_seq" in data
            else ")"
        )
    pairs = []
    for key in sorted(data):
        if key == "batch_seq":
            continue
        value = data[key]
        if isinstance(value, float):
            pairs.append(f"{key}={value:.3f}")
        else:
            pairs.append(f"{key}={value}")
    return ", ".join(pairs) if pairs else "(no cause data)"


def _explain_run(view: Any) -> List[str]:
    lines: List[str] = []
    meta = view.meta
    header = f"run {view.run_id}"
    if meta is not None:
        tag = _format_tag(meta.get("tag"))
        if tag:
            header += f"  {tag}"
        if meta.get("seed") is not None:
            header += f"  seed={meta['seed']}"
    lines.append(header)
    if meta is not None:
        lines.append(f"  {_summary_line(meta.get('data', {}))}")

    counts: Dict[str, int] = view.counts()
    if counts.get(REQUEST_COMPLETE) or counts.get(REQUEST_LOSS):
        lines.append(
            f"  spans: {counts.get(REQUEST_COMPLETE, 0)} completions, "
            f"{counts.get(REQUEST_LOSS, 0)} losses, "
            f"{counts.get(SYSTEM_GC, 0)} GCs"
        )

    if not counts.get(POLICY_TRIGGER) and counts.get(SYSTEM_REJUVENATION):
        lines.append(
            f"  {counts[SYSTEM_REJUVENATION]} rejuvenation(s) recorded, "
            "but no policy decision events in this trace -- re-run with "
            "--trace-level decisions (or all) to see the causes"
        )
    climb: List[Dict[str, Any]] = []
    trigger_no = 0
    for record in view.records(types=_NARRATIVE_TYPES):
        etype = record["type"]
        if etype == POLICY_LEVEL:
            climb.append(record)
        elif etype in (FAULT_INJECTED, FAULT_CLEARED):
            data = record.get("data", {})
            kind = data.get("kind", "?")
            extras = ", ".join(
                f"{key}={value}"
                for key, value in data.items()
                if key != "kind"
            )
            verb = "cleared" if etype == FAULT_CLEARED else "injected"
            lines.append(
                f"  [t={record['ts']:12.3f}s] fault {verb}: {kind}"
                + (f" ({extras})" if extras else "")
            )
        elif etype == POLICY_TRIGGER:
            trigger_no += 1
            data = record.get("data", {})
            lines.append(
                f"  [t={record['ts']:12.3f}s] trigger #{trigger_no} by "
                f"{record.get('source', '?')}: {_format_cause(data)}"
            )
            ups = [c for c in climb if c.get("data", {}).get("direction") == "up"]
            if ups:
                path = ", ".join(
                    f"level {c['data'].get('level', '?')} @"
                    f"{c['ts']:.1f}s"
                    for c in ups
                )
                lines.append(f"      climb: {path}")
            climb = []
    if not counts.get(POLICY_TRIGGER) and not counts.get(SYSTEM_REJUVENATION):
        lines.append("  no rejuvenations in this run")
    return lines


def _explain_flight_run(
    run_id: Any, dumps: List[Dict[str, Any]]
) -> List[str]:
    lines = [f"run {run_id}  ({len(dumps)} flight dump(s))"]
    for dump_no, dump in enumerate(dumps, 1):
        events = dump.get("events", [])
        counts: Dict[str, int] = {}
        for event in events:
            counts[event["type"]] = counts.get(event["type"], 0) + 1
        if events:
            window = (
                f"t {events[0]['ts']:.1f}s..{events[-1]['ts']:.1f}s"
            )
        else:
            window = "empty ring"
        lines.append(
            f"  [t={dump['ts']:12.3f}s] dump #{dump_no}: "
            f"{dump['reason']} -- last {len(events)} events ({window})"
        )
        lines.append(
            f"      ring: {counts.get(REQUEST_COMPLETE, 0)} completions, "
            f"{counts.get(REQUEST_LOSS, 0)} losses, "
            f"{counts.get(SYSTEM_GC, 0)} GCs, "
            f"{counts.get(FAULT_INJECTED, 0)} faults injected"
        )
        trigger = next(
            (
                event
                for event in reversed(events)
                if event["type"] == POLICY_TRIGGER
            ),
            None,
        )
        if trigger is not None:
            data = {
                k: v
                for k, v in trigger.get("data", {}).items()
                if k != "batch_seq"
            }
            lines.append(f"      cause: {_format_cause(data)}")
    return lines


def timeline_records(query: Any) -> List[Dict[str, Any]]:
    """The decision/fault timeline as machine-readable records.

    Per run: one ``{"record": "run", ...}`` header (tag, seed, summary
    block), then one :func:`event_record` per narrative event in trace
    order, then one ``{"record": "flight_dump", ...}`` per recorder
    dump.  Identical for JSONL and ``.rcol`` traces (both load through
    the same query layer), pinned by ``tests/obs/test_explain_json.py``.
    """
    records: List[Dict[str, Any]] = []
    for view in query.run_views():
        meta = view.meta
        header: Dict[str, Any] = {
            "record": "run",
            "run": view.run_id,
            "events": view.n_records,
        }
        if meta is not None:
            tag = meta.get("tag")
            header["tag"] = list(tag) if tag else []
            header["seed"] = meta.get("seed")
            header["summary"] = dict(meta.get("data", {}))
        records.append(header)
        for record in view.records(types=_TIMELINE_TYPES):
            records.append(
                event_record(
                    record["ts"],
                    record["type"],
                    record.get("data", {}),
                    run=view.run_id,
                    source=record.get("source"),
                )
            )
        for dump in view.flight_dumps():
            records.append(
                {
                    "record": "flight_dump",
                    "run": view.run_id,
                    "ts": float(dump["ts"]),
                    "reason": dump["reason"],
                    "events": len(dump.get("events", [])),
                }
            )
    return records


def timeline_from_trace(
    path: str,
    since: Optional[float] = None,
    until: Optional[float] = None,
    kinds: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """Load a trace file and return its machine-readable timeline."""
    from repro.obs.columnar.query import load_query

    query = load_query(path)
    if since is not None or until is not None or kinds:
        query = query.filtered(since=since, until=until, kinds=kinds)
    return timeline_records(query)


def explain_query(query: Any) -> str:
    """The explanation text for an already-built trace query."""
    views = query.run_views()
    lines: List[str] = [
        f"{query.n_records} trace records across {len(views)} run(s)",
        "",
    ]
    for view in views:
        dumps = view.flight_dumps()
        if view.n_records > len(dumps):
            lines.extend(_explain_run(view))
        if dumps:
            lines.extend(_explain_flight_run(view.run_id, dumps))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def explain_records(
    records: List[Dict[str, Any]],
    since: Optional[float] = None,
    until: Optional[float] = None,
    kinds: Optional[Sequence[str]] = None,
) -> str:
    """The explanation text for already-loaded JSONL records.

    Accepts both record shapes the CLI can produce: per-event
    ``--trace`` lines and per-dump ``--flight`` lines (the two may even
    share a file; each run is explained with whichever narrative its
    records call for).  ``since``/``until``/``kinds`` narrow the
    timeline before narration; ``run.meta`` headers always survive.
    """
    from repro.obs.columnar.query import as_query

    query = as_query(records)
    if since is not None or until is not None or kinds:
        query = query.filtered(since=since, until=until, kinds=kinds)
    return explain_query(query)


def explain_trace(
    path: str,
    since: Optional[float] = None,
    until: Optional[float] = None,
    kinds: Optional[Sequence[str]] = None,
) -> str:
    """Load a trace file (JSONL or columnar) and explain it."""
    from repro.obs.columnar.query import load_query

    query = load_query(path)
    if query.n_records == 0:
        return f"{path}: empty trace\n"
    if since is not None or until is not None or kinds:
        query = query.filtered(since=since, until=until, kinds=kinds)
    return explain_query(query)
