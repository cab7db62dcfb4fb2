"""Single-threshold baselines after Bobbio, Sereno & Anglano (2001).

The related-work section describes two policies built on a maximum
degradation threshold:

* a **deterministic** policy -- rejuvenate as soon as the monitored
  metric crosses the threshold (the policy the paper's multi-bucket
  approach generalises);
* a **risk-based** policy -- rejuvenate with a probability proportional
  to a confidence level that grows with the degradation.

Both are implemented here as baselines so the evaluation can show what
the bucket machinery buys (robustness to short-term bursts).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import RejuvenationPolicy


class DeterministicThreshold(RejuvenationPolicy):
    """Trigger as soon as a single observation exceeds ``threshold``.

    Deliberately burst-fragile: one garbage-collection-delayed response
    is enough to pay a full rejuvenation.
    """

    name = "threshold"

    def __init__(self, threshold: float) -> None:
        self.threshold = float(threshold)

    def observe(self, value: float) -> bool:
        return value > self.threshold

    def reset(self) -> None:
        """Stateless; nothing to reset."""

    def describe(self) -> str:
        return f"DeterministicThreshold(limit={self.threshold:g})"


class RiskBasedThreshold(RejuvenationPolicy):
    """Probabilistic trigger with risk growing linearly over a band.

    Below ``soft_limit`` the trigger probability is zero; above
    ``hard_limit`` it is one; in between it rises linearly -- a direct
    reading of Bobbio et al.'s "rejuvenation performed with a
    probability proportional to the confidence level".

    Parameters
    ----------
    soft_limit, hard_limit:
        The degradation band.
    rng:
        Random generator for the Bernoulli draw.  Without one, a
        simulated system hands the policy a named stream of its run
        (``policy``, or ``policy.<i>`` on node ``i`` of many), so seeded
        runs reproduce; a policy used on its own draws from a fresh
        unseeded generator.
    """

    name = "risk-threshold"

    def __init__(
        self,
        soft_limit: float,
        hard_limit: float,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if hard_limit <= soft_limit:
            raise ValueError("hard limit must exceed soft limit")
        self.soft_limit = float(soft_limit)
        self.hard_limit = float(hard_limit)
        self.rng = rng

    def risk(self, value: float) -> float:
        """The trigger probability assigned to an observation."""
        if value <= self.soft_limit:
            return 0.0
        if value >= self.hard_limit:
            return 1.0
        return (value - self.soft_limit) / (self.hard_limit - self.soft_limit)

    def observe(self, value: float) -> bool:
        probability = self.risk(value)
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        if self.rng is None:
            self.rng = np.random.default_rng()
        return bool(self.rng.random() < probability)

    def reset(self) -> None:
        """Stateless apart from the RNG; nothing to reset."""

    def describe(self) -> str:
        return (
            f"RiskBasedThreshold(soft={self.soft_limit:g}, "
            f"hard={self.hard_limit:g})"
        )
