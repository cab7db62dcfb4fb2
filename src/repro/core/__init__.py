"""The paper's contribution: rejuvenation-triggering decision rules.

Three algorithms from the paper --

* :class:`~repro.core.buckets.SRAA` -- static rejuvenation with averaging
  (Fig. 6); with ``sample_size=1`` it degenerates to the original static
  algorithm of [1], exposed as
  :class:`~repro.core.buckets.StaticRejuvenation`.
* :class:`~repro.core.buckets.SARAA` -- sampling-acceleration rejuvenation
  with averaging (Fig. 7).
* :class:`~repro.core.buckets.CLTA` -- the central-limit-theorem rule
  (Fig. 8).

All three are thin constructors of per-level data (targets, batch sizes,
``(K, D)``) for the one :class:`~repro.core.buckets.BucketPolicy` loop.

-- plus the baselines the literature suggests (Bobbio-style thresholds,
periodic, never), all behind the common
:class:`~repro.core.base.RejuvenationPolicy` streaming interface.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BatchBuffer": ".base",
    "DecisionListener": ".base",
    "RejuvenationPolicy": ".base",
    "NeverRejuvenate": ".baselines",
    "PeriodicRejuvenation": ".baselines",
    "BucketChain": ".buckets",
    "CLTA": ".buckets",
    "SARAA": ".buckets",
    "SRAA": ".buckets",
    "StaticRejuvenation": ".buckets",
    "Transition": ".buckets",
    "geometric_acceleration": ".buckets",
    "linear_acceleration": ".buckets",
    "no_acceleration": ".buckets",
    "AllOf": ".composite",
    "AnyOf": ".composite",
    "MajorityOf": ".composite",
    "CUSUMPolicy": ".control_charts",
    "EWMAPolicy": ".control_charts",
    "available_policies": ".factory",
    "make_policy": ".factory",
    "ResourceExhaustionPolicy": ".proactive",
    "QuantilePolicy": ".quantile",
    "PAPER_SLO": ".sla",
    "ServiceLevelObjective": ".sla",
    "NO_POLICY": ".spec",
    "PolicySpec": ".spec",
    "DeterministicThreshold": ".threshold",
    "RiskBasedThreshold": ".threshold",
    "TrendPolicy": ".trend",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
