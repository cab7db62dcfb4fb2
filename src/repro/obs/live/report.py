"""``repro report``: a self-contained HTML dashboard from a trace.

Renders one static HTML file -- no external scripts, stylesheets,
fonts or network fetches -- from a JSONL (or ``.jsonl.gz``) trace
written by ``--trace``.  Per replication it shows the paper's story at
a glance: response-time percentiles over simulated time (the
customer-affecting metric), the detector's bucket-level staircase,
shaded fault-injection intervals (the scripted ground truth), and
rejuvenation markers -- plus the ``repro explain`` decision table.

Charts are inline SVG.  Color follows the role, not the rank: p50 is
always blue, p95 always orange, bucket level violet, faults a shaded
band, rejuvenations red markers; the palette is embedded as CSS custom
properties with selected light and dark values, and native ``<title>``
tooltips plus a per-run data table keep every number readable without
color.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import (
    FAULT_CLEARED,
    FAULT_INJECTED,
    POLICY_LEVEL,
    POLICY_TRIGGER,
    SYSTEM_REJUVENATION,
)

#: Detail charts rendered per run before folding into the note below
#: the summary table (campaign traces can hold hundreds of runs).
DEFAULT_MAX_RUNS = 12

#: Time bins per percentile chart.
_BINS = 60

# Chart geometry (viewBox units).
_W, _H = 720, 220
_ML, _MR, _MT, _MB = 56, 16, 16, 34

_CSS = """
:root {
  color-scheme: light;
  --surface: #fcfcfb; --panel: #f0efec;
  --ink: #0b0b0b; --ink-2: #52514e; --grid: #d9d8d4;
  --p50: #2a78d6; --p95: #eb6834; --level: #4a3aa7;
  --fault: #eda100; --rejuv: #e34948;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --panel: #252524;
    --ink: #ffffff; --ink-2: #c3c2b7; --grid: #3a3a38;
    --p50: #3987e5; --p95: #d95926; --level: #9085e9;
    --fault: #c98500; --rejuv: #e66767;
  }
}
body { background: var(--surface); color: var(--ink);
  font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
  max-width: 820px; padding: 0 1rem; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
h3 { font-size: 0.95rem; color: var(--ink-2); }
table { border-collapse: collapse; width: 100%; font-size: 13px;
  font-variant-numeric: tabular-nums; }
th, td { text-align: right; padding: 3px 8px;
  border-bottom: 1px solid var(--grid); }
th:first-child, td:first-child { text-align: left; }
th { color: var(--ink-2); font-weight: 600; }
svg { display: block; max-width: 100%; height: auto; }
.legend { display: flex; gap: 1.2rem; font-size: 12px;
  color: var(--ink-2); margin: 0.3rem 0 0.2rem; flex-wrap: wrap; }
.legend span::before { content: ""; display: inline-block;
  width: 10px; height: 10px; border-radius: 2px;
  margin-right: 5px; background: var(--swatch); }
.note { color: var(--ink-2); font-size: 13px; }
.chart { background: var(--panel); border-radius: 6px;
  padding: 8px; margin: 0.5rem 0 1rem; }
"""


# ---------------------------------------------------------------------------
# Data extraction (routed through the trace query engine)
# ---------------------------------------------------------------------------
def _fault_intervals(
    records: Sequence[Dict[str, Any]], horizon: float
) -> List[Tuple[float, float, str]]:
    """``(start, end, kind)`` bands from fault.injected/cleared pairs."""
    intervals: List[Tuple[float, float, str]] = []
    open_faults: Dict[str, float] = {}
    for record in records:
        kind = record.get("data", {}).get("kind", "?")
        if record["type"] == FAULT_INJECTED:
            open_faults.setdefault(kind, record["ts"])
        elif record["type"] == FAULT_CLEARED and kind in open_faults:
            intervals.append((open_faults.pop(kind), record["ts"], kind))
    for kind, start in sorted(open_faults.items()):
        intervals.append((start, horizon, kind))
    return intervals


# ---------------------------------------------------------------------------
# SVG primitives
# ---------------------------------------------------------------------------
def _ticks(limit: float, n: int = 5) -> List[float]:
    if limit <= 0.0:
        return [0.0]
    step = limit / n
    return [step * i for i in range(n + 1)]


class _Scale:
    """Linear data -> pixel mapping for one chart."""

    def __init__(self, x_max: float, y_max: float) -> None:
        self.x_max = x_max or 1.0
        self.y_max = y_max or 1.0

    def x(self, value: float) -> float:
        return _ML + (value / self.x_max) * (_W - _ML - _MR)

    def y(self, value: float) -> float:
        return _H - _MB - (value / self.y_max) * (_H - _MT - _MB)


def _axes(scale: _Scale, y_label: str) -> List[str]:
    parts = []
    for tick in _ticks(scale.x_max):
        x = scale.x(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MT}" x2="{x:.1f}" '
            f'y2="{_H - _MB}" stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'fill="var(--ink-2)" font-size="11">{tick:g}</text>'
        )
    for tick in _ticks(scale.y_max, 4):
        y = scale.y(tick)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" '
            f'y2="{y:.1f}" stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'fill="var(--ink-2)" font-size="11">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{_ML}" y="{_MT - 4}" fill="var(--ink-2)" '
        f'font-size="11">{html.escape(y_label)}</text>'
    )
    parts.append(
        f'<text x="{_W - _MR}" y="{_H - 6}" text-anchor="end" '
        f'fill="var(--ink-2)" font-size="11">simulated time (s)</text>'
    )
    return parts


def _polyline(
    points: Sequence[Tuple[float, float]],
    scale: _Scale,
    color_var: str,
    label: str,
) -> str:
    if not points:
        return ""
    path = " ".join(
        f"{scale.x(x):.1f},{scale.y(y):.1f}" for x, y in points
    )
    end_x, end_y = points[-1]
    return (
        f'<polyline points="{path}" fill="none" stroke="var({color_var})" '
        f'stroke-width="2" stroke-linejoin="round"/>'
        f'<text x="{min(scale.x(end_x) + 4, _W - 2):.1f}" '
        f'y="{scale.y(end_y) + 4:.1f}" fill="var({color_var})" '
        f'font-size="11">{html.escape(label)}</text>'
    )


def _svg(body: List[str]) -> str:
    # Inline SVG in an HTML document needs no xmlns -- and omitting it
    # keeps the report free of URLs of any kind (self-containment is
    # asserted as "no http(s):// anywhere" in the tests).
    return (
        f'<svg viewBox="0 0 {_W} {_H}" role="img">'
        + "".join(body)
        + "</svg>"
    )


# ---------------------------------------------------------------------------
# Per-run sections
# ---------------------------------------------------------------------------
def _rt_chart(
    series: List[Tuple[float, float, float]],
    faults: List[Tuple[float, float, str]],
    rejuvenations: List[float],
    horizon: float,
) -> str:
    y_max = max(
        max((p95 for _, _, p95 in series), default=1.0), 1e-9
    )
    scale = _Scale(horizon, y_max * 1.1)
    parts = []
    for start, end, kind in faults:
        x0, x1 = scale.x(start), scale.x(max(end, start))
        parts.append(
            f'<rect x="{x0:.1f}" y="{_MT}" width="{max(x1 - x0, 1):.1f}" '
            f'height="{_H - _MT - _MB}" fill="var(--fault)" '
            f'opacity="0.18"><title>fault: {html.escape(str(kind))} '
            f"[{start:.0f}s, {end:.0f}s]</title></rect>"
        )
    parts.extend(_axes(scale, "response time (s)"))
    for ts in rejuvenations:
        x = scale.x(ts)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MT}" x2="{x:.1f}" y2="{_H - _MB}" '
            f'stroke="var(--rejuv)" stroke-width="2" '
            f'stroke-dasharray="3,3"><title>rejuvenation @ {ts:.1f}s'
            "</title></line>"
        )
    parts.append(
        _polyline([(t, p50) for t, p50, _ in series], scale, "--p50", "p50")
    )
    parts.append(
        _polyline([(t, p95) for t, _, p95 in series], scale, "--p95", "p95")
    )
    for t, p50, p95 in series:
        parts.append(
            f'<circle cx="{scale.x(t):.1f}" cy="{scale.y(p95):.1f}" r="4" '
            f'fill="var(--p95)" opacity="0"><title>t={t:.0f}s  '
            f"p50={p50:.2f}s  p95={p95:.2f}s</title></circle>"
        )
    return _svg(parts)


def _level_chart(
    levels: List[Tuple[float, float]], horizon: float
) -> str:
    y_max = max(max((lv for _, lv in levels), default=1.0), 1.0)
    scale = _Scale(horizon, y_max * 1.15)
    steps: List[Tuple[float, float]] = []
    previous = 0.0
    for ts, level in levels:
        steps.append((ts, previous))
        steps.append((ts, level))
        previous = level
    steps.append((horizon, previous))
    parts = _axes(scale, "bucket level")
    parts.append(_polyline(steps, scale, "--level", "level"))
    return _svg(parts)


def _legend(entries: List[Tuple[str, str]]) -> str:
    spans = "".join(
        f'<span style="--swatch: var({var})">{html.escape(label)}</span>'
        for label, var in entries
    )
    return f'<div class="legend">{spans}</div>'


def _summary_table(views: List[Any]) -> str:
    head = (
        "<tr><th>run</th><th>tag</th><th>seed</th><th>arrivals</th>"
        "<th>completed</th><th>lost</th><th>avg RT (s)</th><th>GCs</th>"
        "<th>rejuvenations</th></tr>"
    )
    rows = []
    for view in views:
        run_id = view.run_id
        meta = view.meta
        summary = (meta or {}).get("data", {})
        tag = ", ".join(str(p) for p in (meta or {}).get("tag") or ())
        rows.append(
            "<tr>"
            f"<td>{html.escape(str(run_id))}</td>"
            f"<td>{html.escape(tag)}</td>"
            f"<td>{html.escape(str((meta or {}).get('seed', '')))}</td>"
            f"<td>{summary.get('arrivals', '')}</td>"
            f"<td>{summary.get('completed', '')}</td>"
            f"<td>{summary.get('lost', '')}</td>"
            f"<td>{summary.get('avg_response_time', 0.0):.3f}</td>"
            f"<td>{summary.get('gc_count', '')}</td>"
            f"<td>{summary.get('rejuvenations', '')}</td>"
            "</tr>"
        )
    return f"<table>{head}{''.join(rows)}</table>"


def _decision_rows(records: List[Dict[str, Any]]) -> List[str]:
    from repro.obs.explain import _format_cause

    rows = []
    for record in records:
        if record["type"] != POLICY_TRIGGER:
            continue
        data = record.get("data", {})
        classic = "batch_mean" in data and "threshold" in data
        rows.append(
            "<tr>"
            f"<td>{record['ts']:.1f}</td>"
            f"<td>{html.escape(str(record.get('source', '')))}</td>"
            f"<td>{data.get('level', '&mdash;')}</td>"
            + (
                f"<td>{data.get('batch_mean', 0.0):.3f}</td>"
                f"<td>{data.get('threshold', 0.0):.3f}</td>"
                if classic
                else "<td>&mdash;</td><td>&mdash;</td>"
            )
            + f"<td>{data.get('sample_size', '&mdash;')}</td>"
            + (
                "<td></td>"
                if classic
                else f"<td>{html.escape(_format_cause(data))}</td>"
            )
            + "</tr>"
        )
    return rows


def _run_section(view: Any) -> str:
    run_id = view.run_id
    meta = view.meta
    summary = (meta or {}).get("data", {})
    horizon = float(summary.get("sim_duration_s", 0.0)) or view.max_ts()
    tag = ", ".join(str(p) for p in (meta or {}).get("tag") or ())
    title = f"run {run_id}" + (f" ({tag})" if tag else "")
    parts = [f"<h2>{html.escape(title)}</h2>"]

    series = view.binned_percentiles(horizon, _BINS)
    faults = _fault_intervals(
        view.records(types=(FAULT_INJECTED, FAULT_CLEARED)), horizon
    )
    rejuvenations = view.ts_of(SYSTEM_REJUVENATION)
    if series:
        legend = [("p50", "--p50"), ("p95", "--p95")]
        if rejuvenations:
            legend.append(("rejuvenation", "--rejuv"))
        if faults:
            legend.append(("fault interval", "--fault"))
        parts.append("<h3>response-time percentiles over time</h3>")
        parts.append(_legend(legend))
        parts.append(
            '<div class="chart">'
            + _rt_chart(series, faults, rejuvenations, horizon)
            + "</div>"
        )
    else:
        parts.append(
            '<p class="note">no request spans in this run&rsquo;s trace '
            "(re-run with <code>--trace-level spans</code> or "
            "<code>all</code> to chart percentiles).</p>"
        )

    levels = [
        (r["ts"], float(r["data"].get("level", 0)))
        for r in view.records(types=(POLICY_LEVEL,))
    ]
    if levels:
        parts.append("<h3>detector bucket level</h3>")
        parts.append(
            '<div class="chart">'
            + _level_chart(levels, horizon)
            + "</div>"
        )

    decisions = _decision_rows(view.records(types=(POLICY_TRIGGER,)))
    if decisions:
        parts.append("<h3>rejuvenation decisions</h3>")
        parts.append(
            "<table><tr><th>t (s)</th><th>policy</th><th>bucket</th>"
            "<th>batch mean (s)</th><th>threshold (s)</th><th>n</th>"
            "<th>cause</th></tr>"
            + "".join(decisions)
            + "</table>"
        )
    if series:
        parts.append(
            "<details><summary class='note'>data table "
            f"({len(series)} bins)</summary><table>"
            "<tr><th>t (s)</th><th>p50 (s)</th><th>p95 (s)</th></tr>"
            + "".join(
                f"<tr><td>{t:.0f}</td><td>{p50:.3f}</td>"
                f"<td>{p95:.3f}</td></tr>"
                for t, p50, p95 in series
            )
            + "</table></details>"
        )
    return "".join(parts)


# ---------------------------------------------------------------------------
# Campaign robustness
# ---------------------------------------------------------------------------
def _robustness_section(query: Any) -> str:
    """The campaign robustness table, or ``""`` for non-campaign traces.

    When the trace holds ``("faults", scenario, policy, rep)``-tagged
    replications, every cell is re-scored against ground truth derived
    from its own aging fault events
    (:func:`repro.faults.campaign.score_records`), so the detector
    head-to-head's headline numbers -- detection latency, misses, false
    alarms per healthy hour, recovery cost -- appear right in the
    dashboard.
    """
    from repro.faults.campaign import score_records

    try:
        scores = score_records(query)
    except ValueError:
        return ""  # malformed / partial runs: skip, keep the charts
    if not scores:
        return ""
    rows = []
    for s in scores:
        latency = (
            f"{s.mean_detection_latency_s:.1f}"
            if s.mean_detection_latency_s is not None
            else "&mdash;"
        )
        rows.append(
            "<tr>"
            f"<td>{html.escape(s.scenario)}</td>"
            f"<td>{html.escape(s.policy)}</td>"
            f"<td>{s.replications}</td>"
            f"<td>{s.detected}/{s.detected + s.missed}</td>"
            f"<td>{s.missed_rate:.2f}</td>"
            f"<td>{latency}</td>"
            f"<td>{s.false_alarms}</td>"
            f"<td>{s.false_alarms_per_healthy_hour:.2f}</td>"
            f"<td>{s.mean_loss_fraction:.5f}</td>"
            f"<td>{s.mean_rejuvenations:.1f}</td>"
            "</tr>"
        )
    return (
        "<h2>campaign robustness</h2>"
        '<p class="note">per (scenario, policy) cell, scored against '
        "ground truth recovered from each run&rsquo;s own aging fault "
        "events (workload shifts, surges, crashes and hangs count as "
        "healthy time).</p>"
        "<table><tr><th>scenario</th><th>policy</th><th>reps</th>"
        "<th>detected</th><th>miss rate</th><th>latency (s)</th>"
        "<th>FA</th><th>FA/healthy h</th><th>loss</th>"
        "<th>rejuv</th></tr>" + "".join(rows) + "</table>"
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def render_report(
    records: Any,
    title: str = "repro trace report",
    max_runs: int = DEFAULT_MAX_RUNS,
) -> str:
    """The full self-contained HTML document for a loaded trace.

    ``records`` is anything :func:`repro.obs.columnar.query.as_query`
    accepts: a list of JSONL record dicts, a columnar trace or a query.
    """
    from repro.obs.columnar.query import as_query

    query = as_query(records)
    views = query.run_views()
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f'<p class="note">{query.n_records} trace records across '
        f"{len(views)} run(s).</p>",
        "<h2>replications</h2>",
        _summary_table(views),
        _robustness_section(query),
    ]
    for view in views[:max_runs]:
        parts.append(_run_section(view))
    if len(views) > max_runs:
        parts.append(
            f'<p class="note">detail charts shown for the first '
            f"{max_runs} of {len(views)} runs; raise --max-runs to "
            "render more.</p>"
        )
    parts.append("</body></html>")
    return "".join(parts)


def write_report(
    trace_path: str,
    out_path: str,
    title: Optional[str] = None,
    max_runs: int = DEFAULT_MAX_RUNS,
) -> int:
    """Render ``trace_path`` (JSONL or columnar, optionally gzipped)
    to ``out_path``.

    Returns the number of trace records rendered.
    """
    from repro.obs.columnar.query import load_query

    query = load_query(trace_path)
    document = render_report(
        query,
        title=title or f"repro trace report — {trace_path}",
        max_runs=max_runs,
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return query.n_records
