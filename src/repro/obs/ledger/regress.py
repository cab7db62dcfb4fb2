"""Statistical regression checks between ledger entries (``repro runs check``).

The comparison reuses the repo's own machinery rather than inventing new
statistics: replication-mean metrics get a two-sample z-test at the
critical value from :func:`repro.stats.normal.two_sided_z` (the same CLT
appeal the CLTA policy makes), and scalar metrics fall back to a
relative-tolerance band.  A single noisy exceedance does not flag: in
the spirit of the paper's SRAA bucket-persistence parameter ``D``, a
check only *flags* after ``persistence`` consecutive exceeding runs
against the same baseline, with the streak stored in the ledger's
``check_state.json``.

Outcome per check: ``ok`` (exit 0), ``exceeded`` (exit 1, streak grows),
``flagged`` (exit 2, streak reached persistence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.ledger.diff import spec_drift
from repro.stats.normal import two_sided_z

#: Default SRAA-style persistence: flag on the 2nd consecutive exceedance.
DEFAULT_PERSISTENCE = 2

#: Default relative-tolerance band for scalar (non-replicated) metrics.
DEFAULT_TOLERANCE = 0.05

#: The per-replication vectors compared for ``simulate`` runs.
SIMULATE_METRICS = (
    "avg_response_time",
    "loss_fraction",
    "rejuvenations",
    "gc_count",
)

#: The robustness-score fields compared for ``faults`` runs.
FAULTS_METRICS = (
    "missed_rate",
    "mean_detection_latency_s",
    "false_alarms_per_healthy_hour",
    "mean_loss_fraction",
    "mean_rejuvenations",
    "mean_response_time_s",
)


@dataclass
class MetricCheck:
    """One metric's verdict: baseline vs candidate."""

    metric: str
    baseline: float
    candidate: float
    method: str  # "welch-z" | "relative" | "hash"
    statistic: Optional[float] = None
    threshold: Optional[float] = None
    exceeded: bool = False

    @property
    def relative_delta(self) -> float:
        denom = max(abs(self.baseline), abs(self.candidate))
        if denom == 0.0:
            return 0.0
        return (self.candidate - self.baseline) / denom


@dataclass
class CheckReport:
    """The full verdict of one ``repro runs check`` invocation."""

    baseline_id: str
    candidate_id: str
    manifest_match: bool
    drift: List[str] = field(default_factory=list)
    checks: List[MetricCheck] = field(default_factory=list)
    persistence: int = DEFAULT_PERSISTENCE
    streak: int = 0

    @property
    def exceeded(self) -> bool:
        return bool(self.drift) or any(c.exceeded for c in self.checks)

    @property
    def flagged(self) -> bool:
        return self.exceeded and self.streak >= self.persistence

    @property
    def exit_code(self) -> int:
        if self.flagged:
            return 2
        if self.exceeded:
            return 1
        return 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "baseline_id": self.baseline_id,
            "candidate_id": self.candidate_id,
            "manifest_match": self.manifest_match,
            "drift": list(self.drift),
            "checks": [
                {
                    "metric": c.metric,
                    "baseline": c.baseline,
                    "candidate": c.candidate,
                    "method": c.method,
                    "statistic": c.statistic,
                    "threshold": c.threshold,
                    "relative_delta": c.relative_delta,
                    "exceeded": c.exceeded,
                }
                for c in self.checks
            ],
            "exceeded": self.exceeded,
            "streak": self.streak,
            "persistence": self.persistence,
            "flagged": self.flagged,
            "exit_code": self.exit_code,
        }


# ---------------------------------------------------------------------------
# Per-metric checks
# ---------------------------------------------------------------------------
def welch_check(
    metric: str,
    baseline_values: Sequence[float],
    candidate_values: Sequence[float],
    confidence: float = 0.95,
    tolerance: float = DEFAULT_TOLERANCE,
) -> MetricCheck:
    """Two-sample z-test on replication means (Welch variance).

    Falls back to the relative band when either side has fewer than two
    replications or both sides are degenerate (zero variance) -- the
    z statistic is undefined there, and smoke runs with one replication
    are the common case.
    """
    nb, nc = len(baseline_values), len(candidate_values)
    mb = sum(baseline_values) / nb
    mc = sum(candidate_values) / nc
    if nb < 2 or nc < 2:
        return relative_check(metric, mb, mc, tolerance)
    vb = sum((x - mb) ** 2 for x in baseline_values) / (nb - 1)
    vc = sum((x - mc) ** 2 for x in candidate_values) / (nc - 1)
    sem = math.sqrt(vb / nb + vc / nc)
    if sem == 0.0:
        return relative_check(metric, mb, mc, tolerance)
    z = (mc - mb) / sem
    critical = two_sided_z(confidence)
    return MetricCheck(
        metric=metric,
        baseline=mb,
        candidate=mc,
        method="welch-z",
        statistic=z,
        threshold=critical,
        exceeded=abs(z) > critical,
    )


def relative_check(
    metric: str,
    baseline: float,
    candidate: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> MetricCheck:
    """Scalar comparison: exceed when |relative delta| > tolerance."""
    check = MetricCheck(
        metric=metric,
        baseline=float(baseline),
        candidate=float(candidate),
        method="relative",
        threshold=tolerance,
    )
    check.statistic = check.relative_delta
    check.exceeded = abs(check.relative_delta) > tolerance
    return check


# ---------------------------------------------------------------------------
# Per-kind outcome comparison
# ---------------------------------------------------------------------------
def compare_outcomes(
    kind: str,
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    confidence: float = 0.95,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[MetricCheck]:
    """Metric checks appropriate to the run kind's outcome schema."""
    if kind == "simulate":
        return _compare_simulate(baseline, candidate, confidence, tolerance)
    if kind == "experiment":
        return _compare_experiment(baseline, candidate, tolerance)
    if kind == "faults":
        return _compare_faults(baseline, candidate, tolerance)
    raise ValueError(f"unknown run kind {kind!r}")


def _compare_simulate(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    confidence: float,
    tolerance: float,
) -> List[MetricCheck]:
    checks = []
    base = baseline.get("per_replication", {})
    cand = candidate.get("per_replication", {})
    for metric in SIMULATE_METRICS:
        if metric in base and metric in cand:
            checks.append(
                welch_check(
                    metric, base[metric], cand[metric], confidence, tolerance
                )
            )
    return checks


def _compare_experiment(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    tolerance: float,
) -> List[MetricCheck]:
    # Bit-identical reproduction short-circuits everything.
    if baseline.get("result_hash") == candidate.get("result_hash"):
        check = MetricCheck(
            metric="result_hash",
            baseline=0.0,
            candidate=0.0,
            method="hash",
            exceeded=False,
        )
        return [check]
    checks = []
    base_series = {
        (t["title"], s["label"]): s
        for t in baseline.get("tables", ())
        for s in t["series"]
    }
    for table in candidate.get("tables", ()):
        for series in table["series"]:
            key = (table["title"], series["label"])
            if key not in base_series:
                continue
            checks.append(
                relative_check(
                    f"{key[0]}/{key[1]}:mean",
                    base_series[key]["mean"],
                    series["mean"],
                    tolerance,
                )
            )
    return checks


def _compare_faults(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    tolerance: float,
) -> List[MetricCheck]:
    checks = []
    base_scores = {
        (s["scenario"], s["policy"]): s
        for s in baseline.get("scores", ())
    }
    for score in candidate.get("scores", ()):
        key = (score["scenario"], score["policy"])
        if key not in base_scores:
            continue
        for metric in FAULTS_METRICS:
            if metric not in score or metric not in base_scores[key]:
                continue
            checks.append(
                relative_check(
                    f"{key[0]}/{key[1]}:{metric}",
                    base_scores[key][metric],
                    score[metric],
                    tolerance,
                )
            )
    return checks


# ---------------------------------------------------------------------------
# The full check, with persistence
# ---------------------------------------------------------------------------
def compare_entries(
    baseline_entry: Mapping[str, Any],
    candidate_entry: Mapping[str, Any],
    confidence: float = 0.95,
    tolerance: float = DEFAULT_TOLERANCE,
    persistence: int = DEFAULT_PERSISTENCE,
) -> CheckReport:
    """Compare candidate against baseline: the verdict, with no streak.

    Manifest drift (differing hashed identity -- e.g. a doubled service
    time changes the config spec) is itself a finding: the drifting
    paths are listed and the run counts as exceeding, *and* the outcome
    metrics are still compared so the report shows how much the drift
    moved them.  The report's ``streak`` is 0; whoever keeps a streak
    (:func:`run_check`, or a sentinel rule) sets it.
    """
    if persistence < 1:
        raise ValueError("persistence must be >= 1")
    base_hash = baseline_entry["manifest"]["manifest_hash"]
    cand_hash = candidate_entry["manifest"]["manifest_hash"]
    match = base_hash == cand_hash
    drift = [] if match else spec_drift(baseline_entry, candidate_entry)
    if not match and not drift:
        # Hashes differ but no flattened path does (should not happen;
        # keep the report honest rather than silently passing).
        drift = ["manifest.manifest_hash"]
    kind = candidate_entry["kind"]
    checks: List[MetricCheck] = []
    if kind == baseline_entry["kind"]:
        checks = compare_outcomes(
            kind,
            baseline_entry.get("outcomes", {}),
            candidate_entry.get("outcomes", {}),
            confidence,
            tolerance,
        )
    else:
        drift = ["manifest.kind"] + drift
    return CheckReport(
        baseline_id=baseline_entry["id"],
        candidate_id=candidate_entry["id"],
        manifest_match=match,
        drift=drift,
        checks=checks,
        persistence=persistence,
    )


def run_check(
    ledger: Any,
    baseline_entry: Mapping[str, Any],
    candidate_entry: Mapping[str, Any],
    confidence: float = 0.95,
    tolerance: float = DEFAULT_TOLERANCE,
    persistence: int = DEFAULT_PERSISTENCE,
) -> CheckReport:
    """:func:`compare_entries`, then advance the ledger's streak state.

    The streak is keyed by the baseline's manifest hash in
    ``check_state.json``; a clean check resets it, an exceedance grows
    it, and ``persistence`` consecutive exceedances flag.
    """
    report = compare_entries(
        baseline_entry, candidate_entry, confidence, tolerance, persistence
    )
    base_hash = baseline_entry["manifest"]["manifest_hash"]
    state = ledger.check_state()
    streak = int(state.get(base_hash, {}).get("streak", 0))
    report.streak = streak + 1 if report.exceeded else 0
    state[base_hash] = {
        "streak": report.streak,
        "last_candidate": candidate_entry["id"],
    }
    ledger.save_check_state(state)
    return report
