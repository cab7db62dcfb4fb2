"""Autocorrelation estimation (Section 4.1 of the paper).

The CLT argument behind CLTA assumes the averaged response times are
(approximately) independent.  Section 4.1 checks this by estimating the
first-order autocorrelation coefficient of simulated M/M/16 response
times at the maximum load of interest, after discarding the first 10,000
transactions as warm-up, using the Shumway & Stoffer estimator:

    gamma_hat = sum_i (x_{i+1} - xbar)(x_i - xbar) / sum_i (x_i - xbar)^2

and declares it significantly non-zero at 95 % confidence when
``|gamma_hat| > 1.96 / sqrt(N)``.  The paper finds only 1 of 5
replications significant.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Two-sided 95 % standard-normal critical value used by the paper.
Z_95 = 1.96


def autocorrelation(values: Sequence[float], lag: int, warmup: int = 0) -> float:
    """Sample autocorrelation at ``lag`` after dropping ``warmup`` values.

    Uses the standard biased ACF estimator (the one in Shumway &
    Stoffer): the lagged cross products are normalised by the *full*
    sum of squared deviations, which keeps the ACF sequence positive
    semi-definite.

    Parameters
    ----------
    values:
        The observed series (e.g. response times in completion order).
    lag:
        Lag ``k >= 0``; lag 0 returns exactly 1.0 for a non-constant
        series.
    warmup:
        Number of leading observations discarded as simulation transient
        (the paper discards 10,000 of 100,000).
    """
    import numpy as np

    if lag < 0:
        raise ValueError("lag must be non-negative")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    series = np.asarray(values, dtype=float)[warmup:]
    n = series.size
    if n <= lag + 1:
        raise ValueError(
            f"need more than lag+1 = {lag + 1} observations after warm-up, "
            f"got {n}"
        )
    centred = series - series.mean()
    denominator = float(centred @ centred)
    if denominator == 0.0:
        raise ValueError("series is constant; autocorrelation is undefined")
    if lag == 0:
        return 1.0
    numerator = float(centred[lag:] @ centred[:-lag])
    return numerator / denominator


def lag1_autocorrelation(values: Sequence[float], warmup: int = 0) -> float:
    """The paper's first-order autocorrelation estimator ``gamma_hat``."""
    return autocorrelation(values, lag=1, warmup=warmup)


def significance_threshold(n_effective: int, z: float = Z_95) -> float:
    """``z / sqrt(N)``: the white-noise critical value used in Section 4.1.

    ``n_effective`` is the number of observations *after* warm-up removal
    (90,000 in the paper).
    """
    if n_effective <= 0:
        raise ValueError("need a positive effective sample size")
    return z / math.sqrt(n_effective)


def is_significant(
    coefficient: float, n_effective: int, z: float = Z_95
) -> bool:
    """Whether ``|coefficient|`` exceeds the white-noise threshold."""
    return abs(coefficient) > significance_threshold(n_effective, z)
