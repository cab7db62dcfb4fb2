"""Confidence intervals for replication means.

Simulation experiments in this library follow the paper's design of a few
independent replications; reporting uses the classical Student-t interval
over the replication means.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """Return ``(mean, low, high)`` for a t-based confidence interval.

    With a single replication the interval degenerates to the point
    estimate, which keeps small smoke-test runs usable.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("need at least one replication")
    mean = float(data.mean())
    if data.size == 1:
        return mean, mean, mean
    sem = float(data.std(ddof=1)) / math.sqrt(data.size)
    from scipy.special import stdtrit  # t.ppf(p, df) is stdtrit(df, p)

    critical = float(stdtrit(data.size - 1, 0.5 + confidence / 2.0))
    half_width = critical * sem
    return mean, mean - half_width, mean + half_width
