"""Trend detection for degradation metrics.

The paper's survey (Section 2) points at measurement-based rejuvenation
work built on "time series analysis, trend detection and estimation"
(Trivedi, Vaidyanathan & Goševa-Popstojanova 2000) and at IBM Director's
"statistical estimation of resource exhaustion" (Castelli et al. 2001).
This module provides the two standard non-parametric tools those
approaches rest on, used by the :class:`~repro.core.trend.TrendPolicy`
and :class:`~repro.core.proactive.ResourceExhaustionPolicy` decision
rules:

* the **Mann-Kendall test** -- is there a monotonic trend at all?
* the **Theil-Sen estimator** -- how steep is it (robust to outliers)?
* **least-squares slope** with its standard error, for the parametric
  extrapolations (time to resource exhaustion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TrendResult:
    """Outcome of a Mann-Kendall trend test."""

    statistic: float     #: the S statistic (sum of pairwise signs)
    z_score: float       #: normal-approximation standardisation of S
    p_value: float       #: two-sided p-value
    slope: float         #: Theil-Sen slope (units per observation)

    @property
    def increasing(self) -> bool:
        """Whether the detected tendency is upward."""
        return self.statistic > 0

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the trend is significant at level ``alpha``."""
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        return self.p_value < alpha


def mann_kendall(values: Sequence[float]) -> TrendResult:
    """Mann-Kendall test with the normal approximation and tie correction.

    Parameters
    ----------
    values:
        The series, in time order; at least 3 observations.

    Notes
    -----
    ``S = sum_{i<j} sign(x_j - x_i)``; under H0 (no trend) ``S`` has mean
    0 and variance ``n(n-1)(2n+5)/18`` minus a tie correction.  The
    continuity-corrected z-score is compared to the standard normal.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 observations for a trend test")
    diffs = np.sign(x[None, :] - x[:, None])
    s = float(np.triu(diffs, k=1).sum())
    # Tie correction: group sizes of equal values.
    _, counts = np.unique(x, return_counts=True)
    tie_term = float((counts * (counts - 1) * (2 * counts + 5)).sum())
    variance = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0
    if variance <= 0:
        # All values identical: no evidence of a trend.
        return TrendResult(statistic=s, z_score=0.0, p_value=1.0, slope=0.0)
    if s > 0:
        z = (s - 1.0) / math.sqrt(variance)
    elif s < 0:
        z = (s + 1.0) / math.sqrt(variance)
    else:
        z = 0.0
    from scipy.special import ndtr  # the kernel of scipy.stats.norm.cdf

    p = 2.0 * (1.0 - float(ndtr(abs(z))))
    return TrendResult(
        statistic=s, z_score=z, p_value=p, slope=theil_sen_slope(x)
    )


def theil_sen_slope(values: Sequence[float]) -> float:
    """Median of all pairwise slopes (robust trend magnitude)."""
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 observations for a slope")
    i, j = np.triu_indices(n, k=1)
    slopes = (x[j] - x[i]) / (j - i)
    return float(np.median(slopes))


def least_squares_slope(
    times: Sequence[float], values: Sequence[float]
) -> Tuple[float, float, float]:
    """OLS fit ``value ~ intercept + slope * time``.

    Returns
    -------
    (slope, intercept, slope_stderr)
        ``slope_stderr`` is 0.0 for a perfect fit and ``inf`` when only
        two points are available.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("times and values must be equal-length vectors")
    n = t.size
    if n < 2:
        raise ValueError("need at least 2 observations for a fit")
    t_mean, y_mean = t.mean(), y.mean()
    t_centred = t - t_mean
    denominator = float(t_centred @ t_centred)
    if denominator == 0.0:
        raise ValueError("all time stamps are identical")
    slope = float(t_centred @ (y - y_mean)) / denominator
    intercept = y_mean - slope * t_mean
    if n == 2:
        return slope, intercept, float("inf")
    residuals = y - (intercept + slope * t)
    sigma2 = float(residuals @ residuals) / (n - 2)
    stderr = math.sqrt(sigma2 / denominator)
    return slope, intercept, stderr


def time_to_level(
    times: Sequence[float],
    values: Sequence[float],
    level: float,
    direction: str = "falling",
) -> float:
    """Extrapolated time at which the OLS fit crosses ``level``.

    This is IBM Director's resource-exhaustion estimate: fit the
    resource over time and predict when it hits the critical level.

    Parameters
    ----------
    direction:
        ``"falling"`` -- the level is a floor and exhaustion means
        dropping to or below it (free heap draining); ``"rising"`` --
        the level is a ceiling and exhaustion means climbing to or
        above it (memory usage growing).

    Returns
    -------
    float
        The predicted crossing time; the latest sample time when the
        fit says the level is already breached; ``inf`` when the trend
        points away from the level (or is flat above/below it).
    """
    if direction not in ("falling", "rising"):
        raise ValueError("direction must be 'falling' or 'rising'")
    slope, intercept, _ = least_squares_slope(times, values)
    latest = float(np.asarray(times, dtype=float)[-1])
    fitted_now = intercept + slope * latest
    breached = fitted_now <= level if direction == "falling" else (
        fitted_now >= level
    )
    if breached:
        return latest
    moving_towards = slope < 0.0 if direction == "falling" else slope > 0.0
    if not moving_towards:
        return float("inf")
    crossing = (level - intercept) / slope
    return max(crossing, latest)
