"""String-keyed construction of policies (CLI, config files, serve).

One table, :data:`_POLICIES`, declares every factory policy: its class,
whether the class takes the SLO, a one-line summary, and its
parameters.  Each parameter is declared once, as a tuple of letter,
type, default, one-line doc and constructor keyword.  The same tuples
build the policy (:func:`make_policy`) and render the *parameter
schema* (:func:`policy_schema`) that ``-p``, ``repro policies
--params`` and ``GET /api/policies`` publish.  :func:`make_policy`
validates parameter names against the table, so a typo in ``-p``
params or a campaign request fails loudly with the valid spellings
instead of being silently ignored, and checks each value against its
type: an ``int`` parameter takes an integer (not a bool, not a
fraction), and no parameter takes NaN.
"""

from __future__ import annotations

import importlib
import math
import numbers
from typing import Any, Dict, List, NamedTuple, Tuple

from repro.core.base import RejuvenationPolicy
from repro.core.sla import ServiceLevelObjective


class _SloShift(NamedTuple):
    """A default of ``slo.mean + k*slo.std``, resolved per SLO."""

    k: int

    def __str__(self) -> str:
        return f"slo.mean + {self.k}*slo.std"


#: ``(letter, type, default, doc, constructor keyword)``.
_Param = Tuple[str, type, Any, str, str]


class _Policy(NamedTuple):
    #: ``module.Class``, imported on first use: ``repro.detect`` imports
    #: ``repro.core.spec``, which imports this module.
    path: str
    takes_slo: bool
    summary: str
    params: Tuple[_Param, ...]


_K: _Param = ("K", int, 1, "buckets to climb before triggering", "n_buckets")
_D: _Param = ("D", int, 1, "bucket depth (net exceedances per level)", "depth")

_POLICIES: Dict[str, _Policy] = {
    "sraa": _Policy(
        "repro.core.buckets.SRAA",
        True,
        "the paper's Software Rejuvenation Alert Algorithm",
        (("n", int, 1, "batch size", "sample_size"), _K, _D),
    ),
    "saraa": _Policy(
        "repro.core.buckets.SARAA",
        True,
        "SRAA with sampling acceleration (adaptive batch size)",
        (("n", int, 5, "initial batch size", "sample_size"), _K, _D),
    ),
    "clta": _Policy(
        "repro.core.buckets.CLTA",
        True,
        "central-limit-theorem alert (single z-test per batch)",
        (
            ("n", int, 30, "batch size", "sample_size"),
            ("z", float, 1.96, "one-sided z threshold", "z"),
        ),
    ),
    "static": _Policy(
        "repro.core.buckets.StaticRejuvenation",
        True,
        "the original static-threshold alert (SRAA with n=1)",
        (_K, _D),
    ),
    "never": _Policy(
        "repro.core.baselines.NeverRejuvenate",
        False,
        "no rejuvenation ever (control arm)",
        (),
    ),
    "periodic": _Policy(
        "repro.core.baselines.PeriodicRejuvenation",
        False,
        "time-blind rejuvenation every N observations",
        (("period", int, 1000, "observations between rejuvenations",
          "period"),),
    ),
    "threshold": _Policy(
        "repro.core.threshold.DeterministicThreshold",
        False,
        "deterministic single-observation threshold",
        (("limit", float, _SloShift(3), "hard limit in seconds",
          "threshold"),),
    ),
    "risk-threshold": _Policy(
        "repro.core.threshold.RiskBasedThreshold",
        False,
        "two-level soft/hard threshold",
        (
            ("soft", float, _SloShift(1), "soft limit (warning)",
             "soft_limit"),
            ("hard", float, _SloShift(4), "hard limit (trigger)",
             "hard_limit"),
        ),
    ),
    "trend": _Policy(
        "repro.core.trend.TrendPolicy",
        False,
        "Mann-Kendall/Theil-Sen slope test over recent batch means",
        (
            ("n", int, 5, "batch size", "sample_size"),
            ("window", int, 12, "batch means in the test window", "window"),
            ("alpha", float, 0.05, "Mann-Kendall significance level", "alpha"),
            ("min_slope", float, 0.0, "minimum Theil-Sen slope (s/batch)",
             "min_slope"),
        ),
    ),
    "quantile": _Policy(
        "repro.core.quantile.QuantilePolicy",
        False,
        "windowed tail-quantile threshold",
        (
            ("q", float, 0.95, "tracked quantile", "quantile"),
            # The paper's 10 s maximum acceptable response time.
            ("limit", float, 10.0, "quantile limit in seconds", "limit"),
            ("window", int, 100, "window size in observations", "window"),
            ("patience", int, 2, "consecutive breaches to trigger",
             "patience"),
        ),
    ),
    "cusum": _Policy(
        "repro.core.control_charts.CUSUMPolicy",
        True,
        "one-sided CUSUM control chart on raw observations",
        (
            ("k", float, 0.5, "reference offset in sigmas", "k_sigmas"),
            ("h", float, 5.0, "decision interval in sigmas", "h_sigmas"),
        ),
    ),
    "ewma": _Policy(
        "repro.core.control_charts.EWMAPolicy",
        True,
        "EWMA control chart on raw observations",
        (
            ("lam", float, 0.2, "EWMA weight", "lam"),
            ("L", float, 3.0, "control-limit width in sigmas", "L_sigmas"),
        ),
    ),
    "adaptive": _Policy(
        "repro.detect.adaptive.AdaptiveThresholdPolicy",
        True,
        "self-recalibrating k-sigma threshold (workload-shift robust)",
        (
            ("n", int, 2, "batch size", "sample_size"),
            ("window", int, 64, "rolling baseline window (batch means)",
             "window"),
            ("k", float, 4.0, "detection threshold in baseline sigmas",
             "k_sigmas"),
            ("patience", int, 6, "consecutive exceedances to decide",
             "patience"),
            ("grow", float, 0.75, "shift/aging growth limit in sigmas",
             "grow_limit_sigmas"),
            ("warmup", int, 16, "accepted batches before arming", "warmup"),
        ),
    ),
    "entropy": _Policy(
        "repro.detect.entropy.EntropyPolicy",
        True,
        "CHAOS-style windowed-entropy shift detector",
        (
            ("window", int, 128, "sliding window (raw observations)",
             "window"),
            ("bins", int, 12, "histogram buckets before overflow", "bins"),
            ("drift", float, 0.5, "entropy deviation band in nats", "drift"),
            ("patience", int, 16, "consecutive deviations to trigger",
             "patience"),
            ("warmup", int, 256, "observations before the reference",
             "warmup"),
            ("adapt", float, 0.002, "reference EWMA weight when healthy",
             "adapt"),
        ),
    ),
    "predictor": _Policy(
        "repro.detect.predictor.TrendProjectionPolicy",
        True,
        "Holt trend projection against the SLA bound",
        (
            ("n", int, 5, "batch size", "sample_size"),
            ("alpha", float, 0.3, "Holt level smoothing weight", "alpha"),
            ("beta", float, 0.1, "Holt trend smoothing weight", "beta"),
            ("lookahead", int, 12, "projection horizon in batches",
             "lookahead"),
            ("bound", float, _SloShift(4), "SLA bound in seconds", "bound"),
            ("warmup", int, 10, "batches before the model is trusted",
             "warmup"),
            ("patience", int, 3, "consecutive projected breaches", "patience"),
        ),
    ),
}


def available_policies() -> tuple[str, ...]:
    """Names accepted by :func:`make_policy`."""
    return tuple(sorted(_POLICIES))


def _entry(name: str) -> _Policy:
    try:
        return _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: "
            f"{', '.join(available_policies())}"
        ) from None


def policy_parameters(name: str) -> Tuple[Dict[str, str], ...]:
    """The parameter schema of one policy (raises on unknown names)."""
    return tuple(
        {
            "name": letter,
            "type": kind.__name__,
            "default": str(default),
            "doc": doc,
        }
        for letter, kind, default, doc, _ in _entry(name).params
    )


def policy_schema() -> List[Dict[str, Any]]:
    """Every factory-constructible policy with its parameter schema.

    JSON-ready: a list of ``{"name", "summary", "params"}`` dicts in
    :func:`available_policies` order (served as ``GET /api/policies``).
    """
    return [
        {
            "name": name,
            "summary": _POLICIES[name].summary,
            "params": list(policy_parameters(name)),
        }
        for name in available_policies()
    ]


def make_policy(
    name: str, slo: ServiceLevelObjective, **params: Any
) -> RejuvenationPolicy:
    """Build a policy by name.

    Parameters
    ----------
    name:
        One of :func:`available_policies`.
    slo:
        The service-level objective (ignored by the stateless baselines).
    params:
        Algorithm parameters using the paper's letters: ``n``, ``K``,
        ``D``, ``z`` -- plus baseline-specific keys (``period``,
        ``limit``, ``soft``, ``hard``).

    Examples
    --------
    >>> from repro.core.sla import PAPER_SLO
    >>> make_policy("sraa", PAPER_SLO, n=2, K=5, D=3).describe()
    'SRAA(n=2, K=5, D=3)'
    """
    entry = _entry(name)
    kinds = {letter: kind for letter, kind, *_ in entry.params}
    unknown = sorted(set(params) - set(kinds))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {', '.join(unknown)} for policy "
            f"{name!r}; accepted: {', '.join(sorted(kinds)) or '(none)'}"
        )
    for key, value in params.items():
        _check_value(name, key, kinds[key], value)
    kwargs = {}
    for letter, kind, default, _, keyword in entry.params:
        value = params.get(letter, default)
        if isinstance(value, _SloShift):
            value = slo.shift_threshold(value.k)
        kwargs[keyword] = kind(value)
    module, _, cls_name = entry.path.rpartition(".")
    cls = getattr(importlib.import_module(module), cls_name)
    return cls(slo, **kwargs) if entry.takes_slo else cls(**kwargs)


def _check_value(policy: str, key: str, kind: type, value: Any) -> None:
    """Refuse a parameter value its declared type cannot hold."""
    numeric = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not numeric or math.isnan(value):
        raise ValueError(
            f"parameter {key}={value!r} of policy {policy!r} must be a number"
        )
    if kind is int and not float(value).is_integer():
        raise ValueError(
            f"parameter {key}={value!r} of policy {policy!r} must be an "
            "integer"
        )
