"""Monitoring framework: metric stream -> policy -> rejuvenation action.

The paper's premise is that the *customer-affecting* metric (response
time) must be monitored directly; CPU or memory counters missed a severe
field fault for months.  This package provides the glue a deployment
needs:

* :class:`~repro.monitoring.monitor.RejuvenationMonitor` -- feeds every
  metric observation to a policy, invokes a rejuvenation callback on a
  trigger, and keeps an auditable event log (trigger times, inter-trigger
  gaps, counts).
* :mod:`~repro.monitoring.calibration` -- estimates the healthy-behaviour
  ``(mu_X, sigma_X)`` from measured data when no SLA supplies them
  (classical or robust median/MAD estimators, with warm-up discard).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AdaptiveSLO": ".adaptive",
    "calibrate_slo": ".calibration",
    "robust_calibrate_slo": ".calibration",
    "MonitorReport": ".monitor",
    "RejuvenationMonitor": ".monitor",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
