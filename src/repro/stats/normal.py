"""Standard-normal quantiles."""

from __future__ import annotations


def normal_quantile(q: float) -> float:
    """The standard-normal quantile ``z_q`` (e.g. ``z_0.975 = 1.96``)."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    from scipy.special import ndtri  # the kernel of scipy.stats.norm.ppf

    return float(ndtri(q))


def two_sided_z(confidence: float) -> float:
    """Two-sided critical value at the given confidence (0.95 -> 1.96)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    return normal_quantile(0.5 + confidence / 2.0)

