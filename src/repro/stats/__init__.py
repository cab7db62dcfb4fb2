"""Statistics used by the monitoring algorithms and the evaluation.

* :class:`~repro.stats.running.OnlineMoments` -- Welford's numerically
  stable running mean/variance, used by calibration and by the simulator's
  metric accounting.
* :mod:`~repro.stats.autocorrelation` -- the paper's lag-1 autocorrelation
  estimator (Shumway & Stoffer) with warm-up discard and the
  ``1.96/sqrt(N)`` significance test of Section 4.1.
* :mod:`~repro.stats.normal` -- standard-normal quantiles (CLTA's
  ``z``); the decision thresholds themselves live on
  :class:`~repro.core.sla.ServiceLevelObjective`.
* :mod:`~repro.stats.clt` -- diagnostics for how fast the law of the
  sample mean approaches the normal (Fig. 5): sup-density distance,
  Kolmogorov distance and tail inflation.
* :mod:`~repro.stats.intervals` -- replication confidence intervals.
"""

from repro.stats.autocorrelation import (
    autocorrelation,
    lag1_autocorrelation,
    significance_threshold,
)
from repro.stats.clt import CLTDiagnostics
from repro.stats.cusum_arl import cusum_arl, cusum_detection_profile
from repro.stats.intervals import mean_confidence_interval
from repro.stats.normal import normal_quantile, two_sided_z
from repro.stats.quantiles import P2Quantile
from repro.stats.running import OnlineMoments
from repro.stats.trend import (
    TrendResult,
    least_squares_slope,
    mann_kendall,
    theil_sen_slope,
    time_to_level,
)

__all__ = [
    "CLTDiagnostics",
    "OnlineMoments",
    "P2Quantile",
    "TrendResult",
    "autocorrelation",
    "cusum_arl",
    "cusum_detection_profile",
    "lag1_autocorrelation",
    "least_squares_slope",
    "mann_kendall",
    "mean_confidence_interval",
    "normal_quantile",
    "significance_threshold",
    "theil_sen_slope",
    "time_to_level",
    "two_sided_z",
]
