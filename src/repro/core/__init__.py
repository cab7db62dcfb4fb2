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

from repro.core.base import BatchBuffer, DecisionListener, RejuvenationPolicy
from repro.core.baselines import NeverRejuvenate, PeriodicRejuvenation
from repro.core.buckets import (
    CLTA,
    SARAA,
    SRAA,
    BucketChain,
    StaticRejuvenation,
    Transition,
    geometric_acceleration,
    linear_acceleration,
    no_acceleration,
)
from repro.core.composite import AllOf, AnyOf, MajorityOf
from repro.core.control_charts import CUSUMPolicy, EWMAPolicy
from repro.core.factory import available_policies, make_policy
from repro.core.proactive import ResourceExhaustionPolicy
from repro.core.quantile import QuantilePolicy
from repro.core.sla import PAPER_SLO, ServiceLevelObjective
from repro.core.spec import NO_POLICY, PolicySpec
from repro.core.threshold import DeterministicThreshold, RiskBasedThreshold
from repro.core.trend import TrendPolicy

__all__ = [
    "AllOf",
    "AnyOf",
    "BatchBuffer",
    "BucketChain",
    "CLTA",
    "CUSUMPolicy",
    "DecisionListener",
    "EWMAPolicy",
    "MajorityOf",
    "DeterministicThreshold",
    "NO_POLICY",
    "NeverRejuvenate",
    "PAPER_SLO",
    "PolicySpec",
    "PeriodicRejuvenation",
    "QuantilePolicy",
    "RejuvenationPolicy",
    "ResourceExhaustionPolicy",
    "RiskBasedThreshold",
    "SARAA",
    "SRAA",
    "ServiceLevelObjective",
    "StaticRejuvenation",
    "Transition",
    "TrendPolicy",
    "available_policies",
    "geometric_acceleration",
    "linear_acceleration",
    "make_policy",
    "no_acceleration",
]
