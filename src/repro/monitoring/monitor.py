"""The streaming monitor that connects a metric source to a policy."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.base import RejuvenationPolicy
from repro.stats.running import OnlineMoments


@dataclass
class MonitorReport:
    """Summary of a monitoring session."""

    observations: int
    triggers: int
    trigger_times: List[float]
    metric_mean: float
    metric_std: float

    @property
    def mean_time_between_triggers(self) -> float:
        """Average gap between consecutive triggers (inf when < 2)."""
        if len(self.trigger_times) < 2:
            return float("inf")
        gaps = [
            b - a
            for a, b in zip(self.trigger_times, self.trigger_times[1:])
        ]
        return sum(gaps) / len(gaps)


@dataclass
class _TriggerRecord:
    time: float
    observation_index: int


class RejuvenationMonitor:
    """Feeds metric observations to a policy and fires rejuvenation.

    Parameters
    ----------
    policy:
        Any :class:`~repro.core.base.RejuvenationPolicy`.
    on_rejuvenate:
        Callback invoked (with the trigger time) when the policy fires;
        the e-commerce simulator passes its capacity-restoration routine
        here.  May be ``None`` for offline analysis.

    Examples
    --------
    >>> from repro.core import CLTA, PAPER_SLO
    >>> monitor = RejuvenationMonitor(CLTA(PAPER_SLO, sample_size=2, z=1.96))
    >>> monitor.feed(100.0, time=1.0); monitor.feed(100.0, time=2.0)
    False
    True
    >>> monitor.triggers
    1
    """

    def __init__(
        self,
        policy: RejuvenationPolicy,
        on_rejuvenate: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.policy = policy
        self.on_rejuvenate = on_rejuvenate
        self.moments = OnlineMoments()
        self._records: List[_TriggerRecord] = []
        self._observations = 0

    # ------------------------------------------------------------------
    @property
    def observations(self) -> int:
        """Observations consumed so far."""
        return self._observations

    @property
    def triggers(self) -> int:
        """Rejuvenations fired so far."""
        return len(self._records)

    @property
    def trigger_times(self) -> List[float]:
        """Times at which rejuvenation fired."""
        return [record.time for record in self._records]

    def feed(self, value: float, time: Optional[float] = None) -> bool:
        """Consume one observation; return whether rejuvenation fired.

        ``time`` defaults to the observation index, which keeps purely
        count-based analyses working without a clock.

        Non-finite metric values are rejected loudly: a NaN from a
        broken probe would otherwise poison the running statistics and
        silently disable averaging policies.
        """
        if not math.isfinite(value):
            raise ValueError(
                f"metric observation must be finite, got {value!r}"
            )
        self._observations += 1
        self.moments.push(value)
        if not self.policy.observe(value):
            return False
        when = float(time) if time is not None else float(self._observations)
        self._records.append(
            _TriggerRecord(time=when, observation_index=self._observations)
        )
        if self.on_rejuvenate is not None:
            self.on_rejuvenate(when)
        return True

    def notify_external_rejuvenation(self) -> None:
        """Tell the policy the system was rejuvenated by someone else.

        Clears detection state so stale evidence does not cause an
        immediate re-trigger after an operator-initiated restart.
        """
        self.policy.reset()

    def report(self) -> MonitorReport:
        """Summarise the session so far."""
        return MonitorReport(
            observations=self._observations,
            triggers=self.triggers,
            trigger_times=self.trigger_times,
            metric_mean=self.moments.mean,
            metric_std=self.moments.std,
        )

    def snapshot(self) -> Dict[str, Any]:
        """The live state as one JSON-serialisable dict.

        The dashboard view of :meth:`report`: cheap to take mid-stream
        (no list copies beyond the last trigger), stable keys, and the
        policy's own ``describe()`` parameters inlined -- what a
        ``repro top``-style display or a metrics scraper wants between
        observations.
        """
        moments = self.moments
        return {
            "observations": self._observations,
            "triggers": len(self._records),
            "last_trigger_ts": (
                self._records[-1].time if self._records else None
            ),
            "metric_mean": moments.mean if moments.count else 0.0,
            "metric_std": moments.std,
            "metric_min": moments.minimum if moments.count else 0.0,
            "metric_max": moments.maximum if moments.count else 0.0,
            "policy": self.policy.describe(),
        }
