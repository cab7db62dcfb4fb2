"""Alert rule families: SLO burn rate and cross-run regression.

Rules are small state machines that consume observations and emit
:class:`Signal` objects; the :class:`~repro.obs.sentinel.engine.AlertEngine`
turns signal transitions into incidents.  Both families re-apply the
paper's core discipline -- never page on one noisy observation:

* :class:`BurnRateRule` implements multi-window SLO burn-rate alerting
  over the live ``live.snapshot`` stream (cumulative completion /
  SLO-bad counters published by the serve tap, or replayed offline from
  a trace).  The burn rate is the fraction of requests over the SLO in
  a window divided by the error budget ``1 - objective``; the rule
  fires only when **both** the long and the short window burn at or
  above ``factor`` with at least ``min_count`` completions in the long
  window -- the short window gates noise, the long window gates
  flapping, exactly the Google SRE multi-window construction.
* :class:`RegressionRule` re-applies the SRAA-style persistence filter
  to the Welch z-test machinery behind ``repro runs check``: each new
  ledger entry is compared against a pinned baseline label, and the
  rule fires only after ``persistence`` *consecutive* exceeding runs.
  It keeps its own streak and never writes the run ledger's
  ``check_state.json`` -- watching must not perturb what it watches.

Everything here is deterministic: state advances only on observations,
and identical observation sequences produce identical signals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from repro.obs.explain import event_record
from repro.obs.ledger.regress import (
    DEFAULT_PERSISTENCE,
    DEFAULT_TOLERANCE,
    compare_entries,
)

__all__ = ["BurnRateRule", "RegressionRule", "Signal", "rules_from_dict"]

#: Default SLO objective: 95% of requests within the SLO.
DEFAULT_OBJECTIVE = 0.95

#: Default burn-rate factor: budget consumed 4x too fast.
DEFAULT_FACTOR = 4.0


@dataclass
class Signal:
    """One rule's verdict after one observation."""

    rule: str
    kind: str
    target: str
    firing: bool
    ts: float
    summary: str
    observed: Dict[str, Any] = field(default_factory=dict)
    evidence: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class _Point:
    ts: float
    completed: int
    bad: int


class _BurnWindow:
    """Cumulative-counter ring for one run target."""

    __slots__ = ("points",)

    def __init__(self) -> None:
        self.points: Deque[_Point] = deque()

    def add(self, ts: float, completed: int, bad: int) -> None:
        if self.points and completed < self.points[-1].completed:
            # Counter went backwards: a new replication started under
            # the same tag.  Restart the ring rather than alert on a
            # negative delta.
            self.points.clear()
        self.points.append(_Point(ts, completed, bad))

    def evict(self, now: float, window_s: float) -> None:
        # Keep one point at or before the window edge as the delta base.
        while (
            len(self.points) >= 2
            and self.points[1].ts <= now - window_s
        ):
            self.points.popleft()

    def deltas(self, now: float, window_s: float) -> Tuple[int, int]:
        """(completions, bad) accumulated inside the trailing window."""
        if not self.points:
            return 0, 0
        head = self.points[-1]
        base: Optional[_Point] = None
        for point in self.points:
            if point.ts <= now - window_s:
                base = point
            else:
                break
        if base is None:
            # Window opens before the first retained point; counters
            # are cumulative from run start, so the origin is (0, 0).
            return head.completed, head.bad
        return head.completed - base.completed, head.bad - base.bad


class BurnRateRule:
    """Multi-window SLO burn-rate alerting over live snapshots."""

    kind = "burn_rate"

    def __init__(
        self,
        name: str,
        slo_s: Optional[float] = None,
        objective: float = DEFAULT_OBJECTIVE,
        factor: float = DEFAULT_FACTOR,
        long_window_s: float = 600.0,
        short_window_s: float = 120.0,
        min_count: int = 50,
    ):
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if factor <= 0:
            raise ValueError("factor must be positive")
        if short_window_s <= 0 or long_window_s < short_window_s:
            raise ValueError(
                "windows must satisfy 0 < short_window_s <= long_window_s"
            )
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        self.name = name
        self.slo_s = slo_s
        self.objective = objective
        self.budget = 1.0 - objective
        self.factor = factor
        self.long_window_s = long_window_s
        self.short_window_s = short_window_s
        self.min_count = min_count
        self._windows: Dict[str, _BurnWindow] = {}

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "slo_s": self.slo_s,
            "objective": self.objective,
            "factor": self.factor,
            "long_window_s": self.long_window_s,
            "short_window_s": self.short_window_s,
            "min_count": self.min_count,
        }

    # ------------------------------------------------------------------
    def observe_snapshot(
        self, snapshot: Mapping[str, Any]
    ) -> Optional[Signal]:
        completed = snapshot.get("completed")
        bad = snapshot.get("slo_bad")
        ts = snapshot.get("ts")
        if completed is None or bad is None or ts is None:
            return None
        target = str(snapshot.get("run", "live"))
        window = self._windows.get(target)
        if window is None:
            window = self._windows[target] = _BurnWindow()
        window.add(float(ts), int(completed), int(bad))
        window.evict(float(ts), self.long_window_s)
        done_long, bad_long = window.deltas(float(ts), self.long_window_s)
        done_short, bad_short = window.deltas(float(ts), self.short_window_s)
        burn_long = self._burn(bad_long, done_long)
        burn_short = self._burn(bad_short, done_short)
        firing = (
            done_long >= self.min_count
            and burn_long >= self.factor
            and burn_short >= self.factor
        )
        slo_s = snapshot.get("slo_s", self.slo_s)
        observed = {
            "burn_long": burn_long,
            "burn_short": burn_short,
            "factor": self.factor,
            "objective": self.objective,
            "budget": self.budget,
            "slo_s": slo_s,
            "long_window_s": self.long_window_s,
            "short_window_s": self.short_window_s,
            "completed": int(completed),
            "slo_bad": int(bad),
            "window_completed": done_long,
            "window_bad": bad_long,
        }
        summary = (
            f"burn {burn_long:.1f}x/{burn_short:.1f}x of budget "
            f"{self.budget:.3f} (slo {slo_s}s, factor {self.factor:g})"
        )
        return Signal(
            rule=self.name,
            kind=self.kind,
            target=target,
            firing=firing,
            ts=float(ts),
            summary=summary,
            observed=observed,
            evidence=[
                event_record(
                    float(ts),
                    "live.snapshot",
                    {
                        "completed": int(completed),
                        "slo_bad": int(bad),
                        "burn_long": burn_long,
                        "burn_short": burn_short,
                    },
                    run=target,
                )
            ],
        )

    def _burn(self, bad: int, done: int) -> float:
        if done <= 0:
            return 0.0
        return (bad / done) / self.budget

    def forget(self, target: str) -> None:
        """Drop burn state for a finished run tag."""
        self._windows.pop(target, None)


class RegressionRule:
    """Persistence-filtered cross-run regression against a baseline."""

    kind = "regression"

    def __init__(
        self,
        name: str,
        baseline: str,
        persistence: int = DEFAULT_PERSISTENCE,
        confidence: float = 0.95,
        tolerance: float = DEFAULT_TOLERANCE,
    ):
        if persistence < 1:
            raise ValueError("persistence must be >= 1")
        self.name = name
        self.baseline = baseline
        self.persistence = persistence
        self.confidence = confidence
        self.tolerance = tolerance
        self._streak = 0

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "baseline": self.baseline,
            "persistence": self.persistence,
            "confidence": self.confidence,
            "tolerance": self.tolerance,
        }

    # ------------------------------------------------------------------
    def observe_entry(
        self, entry: Mapping[str, Any], ledger: Any
    ) -> Optional[Signal]:
        if ledger is None:
            return None
        try:
            baseline_entry = ledger.baseline_entry(self.baseline)
        except LookupError:
            return None
        if entry["id"] == baseline_entry["id"]:
            return None
        if entry["kind"] != baseline_entry["kind"]:
            return None
        report = compare_entries(
            baseline_entry,
            entry,
            confidence=self.confidence,
            tolerance=self.tolerance,
            persistence=self.persistence,
        )
        # The rule owns its streak -- watching never writes the run
        # ledger's check_state.json.
        self._streak = self._streak + 1 if report.exceeded else 0
        report.streak = self._streak
        firing = report.exceeded and self._streak >= self.persistence
        exceeded_metrics = [
            check.metric for check in report.checks if check.exceeded
        ]
        observed = {
            "baseline_id": report.baseline_id,
            "candidate_id": report.candidate_id,
            "streak": self._streak,
            "persistence": self.persistence,
            "exceeded": report.exceeded,
            "drift": list(report.drift),
            "exceeded_metrics": exceeded_metrics,
            "confidence": self.confidence,
            "tolerance": self.tolerance,
        }
        if report.exceeded:
            what = ", ".join(exceeded_metrics or report.drift) or "outcomes"
            summary = (
                f"run {entry['id']} exceeds baseline "
                f"{self.baseline!r} ({what}); streak "
                f"{self._streak}/{self.persistence}"
            )
        else:
            summary = (
                f"run {entry['id']} within baseline {self.baseline!r}; "
                "streak reset"
            )
        return Signal(
            rule=self.name,
            kind=self.kind,
            target=self.baseline,
            firing=firing,
            ts=0.0,
            summary=summary,
            observed=observed,
            evidence=[
                event_record(
                    0.0,
                    "runs.check",
                    report.to_dict(),
                    run=str(entry["id"]),
                )
            ],
        )


def rules_from_dict(config: Mapping[str, Any]) -> List[Any]:
    """Build rule objects from a JSON-ish config.

    Shape (both keys optional)::

        {"burn_rate": [{"slo_s": 2.0, "objective": 0.95, ...}],
         "regression": [{"baseline": "prod", "persistence": 2, ...}]}
    """
    if not isinstance(config, Mapping):
        raise ValueError("rules config must be a JSON object")
    unknown = set(config) - {"burn_rate", "regression"}
    if unknown:
        raise ValueError(f"unknown rule famil(ies): {sorted(unknown)}")
    rules: List[Any] = []
    for index, spec in enumerate(config.get("burn_rate", ())):
        spec = dict(spec)
        name = spec.pop("name", f"burn-rate-{index + 1}")
        rules.append(BurnRateRule(name, **spec))
    for index, spec in enumerate(config.get("regression", ())):
        spec = dict(spec)
        name = spec.pop("name", f"regression-{index + 1}")
        if "baseline" not in spec:
            raise ValueError("regression rule needs a 'baseline' label")
        rules.append(RegressionRule(name, **spec))
    return rules
