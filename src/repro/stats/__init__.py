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

from repro._lazy import lazy_exports

# These two share their module's name.  Importing a submodule binds it
# on the package, which would hide a lazy export of the same name, so
# they are bound now; their modules import NumPy where they use it.
from repro.stats.autocorrelation import autocorrelation
from repro.stats.cusum_arl import cusum_arl

_EXPORTS = {
    "autocorrelation": ".autocorrelation",
    "lag1_autocorrelation": ".autocorrelation",
    "significance_threshold": ".autocorrelation",
    "CLTDiagnostics": ".clt",
    "cusum_arl": ".cusum_arl",
    "cusum_detection_profile": ".cusum_arl",
    "mean_confidence_interval": ".intervals",
    "normal_quantile": ".normal",
    "two_sided_z": ".normal",
    "P2Quantile": ".quantiles",
    "OnlineMoments": ".running",
    "TrendResult": ".trend",
    "least_squares_slope": ".trend",
    "mann_kendall": ".trend",
    "theil_sen_slope": ".trend",
    "time_to_level": ".trend",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
