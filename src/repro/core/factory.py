"""String-keyed construction of policies (CLI, config files, serve).

Besides the builders themselves this module carries a *parameter
schema* per policy (:func:`policy_schema`): the parameter letters each
builder accepts, their types, defaults and one-line docs.  The serve
layer publishes it verbatim as ``GET /api/policies`` and
:func:`make_policy` validates parameter names against it, so a typo in
``-p`` params or a campaign request fails loudly with the valid
spellings instead of being silently ignored, and checks each value
against its schema type: an ``int`` parameter takes an integer (not a
bool, not a fraction), and no parameter takes NaN.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Callable, Dict, List, Tuple

from repro.core.base import RejuvenationPolicy
from repro.core.baselines import NeverRejuvenate, PeriodicRejuvenation
from repro.core.buckets import CLTA, SARAA, SRAA, StaticRejuvenation
from repro.core.control_charts import CUSUMPolicy, EWMAPolicy
from repro.core.quantile import QuantilePolicy
from repro.core.sla import ServiceLevelObjective
from repro.core.threshold import DeterministicThreshold, RiskBasedThreshold
from repro.core.trend import TrendPolicy


def _build_sraa(slo: ServiceLevelObjective, **kw: Any) -> RejuvenationPolicy:
    return SRAA(
        slo,
        sample_size=int(kw.get("n", 1)),
        n_buckets=int(kw.get("K", 1)),
        depth=int(kw.get("D", 1)),
    )


def _build_saraa(slo: ServiceLevelObjective, **kw: Any) -> RejuvenationPolicy:
    return SARAA(
        slo,
        sample_size=int(kw.get("n", 5)),
        n_buckets=int(kw.get("K", 1)),
        depth=int(kw.get("D", 1)),
    )


def _build_clta(slo: ServiceLevelObjective, **kw: Any) -> RejuvenationPolicy:
    return CLTA(slo, sample_size=int(kw.get("n", 30)), z=float(kw.get("z", 1.96)))


def _build_static(slo: ServiceLevelObjective, **kw: Any) -> RejuvenationPolicy:
    return StaticRejuvenation(
        slo, n_buckets=int(kw.get("K", 1)), depth=int(kw.get("D", 1))
    )


def _build_never(slo: ServiceLevelObjective, **kw: Any) -> RejuvenationPolicy:
    return NeverRejuvenate()


def _build_periodic(slo: ServiceLevelObjective, **kw: Any) -> RejuvenationPolicy:
    return PeriodicRejuvenation(period=int(kw.get("period", 1000)))


def _build_threshold(slo: ServiceLevelObjective, **kw: Any) -> RejuvenationPolicy:
    default_limit = slo.shift_threshold(3)
    return DeterministicThreshold(threshold=float(kw.get("limit", default_limit)))


def _build_risk(slo: ServiceLevelObjective, **kw: Any) -> RejuvenationPolicy:
    soft = float(kw.get("soft", slo.shift_threshold(1)))
    hard = float(kw.get("hard", slo.shift_threshold(4)))
    return RiskBasedThreshold(soft_limit=soft, hard_limit=hard)


def _build_trend(slo: ServiceLevelObjective, **kw: Any) -> RejuvenationPolicy:
    return TrendPolicy(
        sample_size=int(kw.get("n", 5)),
        window=int(kw.get("window", 12)),
        alpha=float(kw.get("alpha", 0.05)),
        min_slope=float(kw.get("min_slope", 0.0)),
    )


def _build_quantile(
    slo: ServiceLevelObjective, **kw: Any
) -> RejuvenationPolicy:
    # Default limit: the paper's 10 s maximum acceptable response time.
    return QuantilePolicy(
        quantile=float(kw.get("q", 0.95)),
        limit=float(kw.get("limit", 10.0)),
        window=int(kw.get("window", 100)),
        patience=int(kw.get("patience", 2)),
    )


def _build_cusum(slo: ServiceLevelObjective, **kw: Any) -> RejuvenationPolicy:
    return CUSUMPolicy(
        slo,
        k_sigmas=float(kw.get("k", 0.5)),
        h_sigmas=float(kw.get("h", 5.0)),
    )


def _build_ewma(slo: ServiceLevelObjective, **kw: Any) -> RejuvenationPolicy:
    return EWMAPolicy(
        slo,
        lam=float(kw.get("lam", 0.2)),
        L_sigmas=float(kw.get("L", 3.0)),
    )


def _build_adaptive(
    slo: ServiceLevelObjective, **kw: Any
) -> RejuvenationPolicy:
    from repro.detect.adaptive import AdaptiveThresholdPolicy

    return AdaptiveThresholdPolicy(
        slo,
        sample_size=int(kw.get("n", 2)),
        window=int(kw.get("window", 64)),
        k_sigmas=float(kw.get("k", 4.0)),
        patience=int(kw.get("patience", 6)),
        grow_limit_sigmas=float(kw.get("grow", 0.75)),
        warmup=int(kw.get("warmup", 16)),
    )


def _build_entropy(
    slo: ServiceLevelObjective, **kw: Any
) -> RejuvenationPolicy:
    from repro.detect.entropy import EntropyPolicy

    return EntropyPolicy(
        slo,
        window=int(kw.get("window", 128)),
        bins=int(kw.get("bins", 12)),
        drift=float(kw.get("drift", 0.5)),
        patience=int(kw.get("patience", 16)),
        warmup=int(kw.get("warmup", 256)),
        adapt=float(kw.get("adapt", 0.002)),
    )


def _build_predictor(
    slo: ServiceLevelObjective, **kw: Any
) -> RejuvenationPolicy:
    from repro.detect.predictor import TrendProjectionPolicy

    return TrendProjectionPolicy(
        slo,
        sample_size=int(kw.get("n", 5)),
        alpha=float(kw.get("alpha", 0.3)),
        beta=float(kw.get("beta", 0.1)),
        lookahead=int(kw.get("lookahead", 12)),
        bound=float(kw["bound"]) if "bound" in kw else None,
        warmup=int(kw.get("warmup", 10)),
        patience=int(kw.get("patience", 3)),
    )


_BUILDERS: Dict[str, Callable[..., RejuvenationPolicy]] = {
    "adaptive": _build_adaptive,
    "entropy": _build_entropy,
    "predictor": _build_predictor,
    "cusum": _build_cusum,
    "ewma": _build_ewma,
    "quantile": _build_quantile,
    "trend": _build_trend,
    "sraa": _build_sraa,
    "saraa": _build_saraa,
    "clta": _build_clta,
    "static": _build_static,
    "never": _build_never,
    "periodic": _build_periodic,
    "threshold": _build_threshold,
    "risk-threshold": _build_risk,
}


def _p(name: str, kind: str, default: str, doc: str) -> Dict[str, str]:
    return {"name": name, "type": kind, "default": default, "doc": doc}


#: One-line summary + parameter schema per factory name, published as
#: ``GET /api/policies`` and enforced by :func:`make_policy`.
_SCHEMAS: Dict[str, Tuple[str, Tuple[Dict[str, str], ...]]] = {
    "sraa": (
        "the paper's Software Rejuvenation Alert Algorithm",
        (
            _p("n", "int", "1", "batch size"),
            _p("K", "int", "1", "buckets to climb before triggering"),
            _p("D", "int", "1", "bucket depth (net exceedances per level)"),
        ),
    ),
    "saraa": (
        "SRAA with sampling acceleration (adaptive batch size)",
        (
            _p("n", "int", "5", "initial batch size"),
            _p("K", "int", "1", "buckets to climb before triggering"),
            _p("D", "int", "1", "bucket depth (net exceedances per level)"),
        ),
    ),
    "clta": (
        "central-limit-theorem alert (single z-test per batch)",
        (
            _p("n", "int", "30", "batch size"),
            _p("z", "float", "1.96", "one-sided z threshold"),
        ),
    ),
    "static": (
        "the original static-threshold alert (SRAA with n=1)",
        (
            _p("K", "int", "1", "buckets to climb before triggering"),
            _p("D", "int", "1", "bucket depth (net exceedances per level)"),
        ),
    ),
    "never": ("no rejuvenation ever (control arm)", ()),
    "periodic": (
        "time-blind rejuvenation every N observations",
        (_p("period", "int", "1000", "observations between rejuvenations"),),
    ),
    "threshold": (
        "deterministic single-observation threshold",
        (_p("limit", "float", "slo.mean + 3*slo.std", "hard limit in seconds"),),
    ),
    "risk-threshold": (
        "two-level soft/hard threshold",
        (
            _p("soft", "float", "slo.mean + 1*slo.std", "soft limit (warning)"),
            _p("hard", "float", "slo.mean + 4*slo.std", "hard limit (trigger)"),
        ),
    ),
    "trend": (
        "Mann-Kendall/Theil-Sen slope test over recent batch means",
        (
            _p("n", "int", "5", "batch size"),
            _p("window", "int", "12", "batch means in the test window"),
            _p("alpha", "float", "0.05", "Mann-Kendall significance level"),
            _p("min_slope", "float", "0.0", "minimum Theil-Sen slope (s/batch)"),
        ),
    ),
    "quantile": (
        "windowed tail-quantile threshold",
        (
            _p("q", "float", "0.95", "tracked quantile"),
            _p("limit", "float", "10.0", "quantile limit in seconds"),
            _p("window", "int", "100", "window size in observations"),
            _p("patience", "int", "2", "consecutive breaches to trigger"),
        ),
    ),
    "cusum": (
        "one-sided CUSUM control chart on raw observations",
        (
            _p("k", "float", "0.5", "reference offset in sigmas"),
            _p("h", "float", "5.0", "decision interval in sigmas"),
        ),
    ),
    "ewma": (
        "EWMA control chart on raw observations",
        (
            _p("lam", "float", "0.2", "EWMA weight"),
            _p("L", "float", "3.0", "control-limit width in sigmas"),
        ),
    ),
    "adaptive": (
        "self-recalibrating k-sigma threshold (workload-shift robust)",
        (
            _p("n", "int", "2", "batch size"),
            _p("window", "int", "64", "rolling baseline window (batch means)"),
            _p("k", "float", "4.0", "detection threshold in baseline sigmas"),
            _p("patience", "int", "6", "consecutive exceedances to decide"),
            _p("grow", "float", "0.75", "shift/aging growth limit in sigmas"),
            _p("warmup", "int", "16", "accepted batches before arming"),
        ),
    ),
    "entropy": (
        "CHAOS-style windowed-entropy shift detector",
        (
            _p("window", "int", "128", "sliding window (raw observations)"),
            _p("bins", "int", "12", "histogram buckets before overflow"),
            _p("drift", "float", "0.5", "entropy deviation band in nats"),
            _p("patience", "int", "16", "consecutive deviations to trigger"),
            _p("warmup", "int", "256", "observations before the reference"),
            _p("adapt", "float", "0.002", "reference EWMA weight when healthy"),
        ),
    ),
    "predictor": (
        "Holt trend projection against the SLA bound",
        (
            _p("n", "int", "5", "batch size"),
            _p("alpha", "float", "0.3", "Holt level smoothing weight"),
            _p("beta", "float", "0.1", "Holt trend smoothing weight"),
            _p("lookahead", "int", "12", "projection horizon in batches"),
            _p("bound", "float", "slo.mean + 4*slo.std", "SLA bound in seconds"),
            _p("warmup", "int", "10", "batches before the model is trusted"),
            _p("patience", "int", "3", "consecutive projected breaches"),
        ),
    ),
}

assert set(_SCHEMAS) == set(_BUILDERS)


def available_policies() -> tuple[str, ...]:
    """Names accepted by :func:`make_policy`."""
    return tuple(sorted(_BUILDERS))


def policy_parameters(name: str) -> Tuple[Dict[str, str], ...]:
    """The parameter schema of one policy (raises on unknown names)."""
    try:
        return _SCHEMAS[name][1]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: "
            f"{', '.join(available_policies())}"
        ) from None


def policy_schema() -> List[Dict[str, Any]]:
    """Every factory-constructible policy with its parameter schema.

    JSON-ready: a list of ``{"name", "summary", "params"}`` dicts in
    :func:`available_policies` order (served as ``GET /api/policies``).
    """
    return [
        {
            "name": name,
            "summary": _SCHEMAS[name][0],
            "params": [dict(p) for p in _SCHEMAS[name][1]],
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
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: {', '.join(available_policies())}"
        ) from None
    kinds = {p["name"]: p["type"] for p in _SCHEMAS[name][1]}
    unknown = sorted(set(params) - set(kinds))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {', '.join(unknown)} for policy "
            f"{name!r}; accepted: {', '.join(sorted(kinds)) or '(none)'}"
        )
    for key, value in params.items():
        _check_value(name, key, kinds[key], value)
    return builder(slo, **params)


def _check_value(policy: str, key: str, kind: str, value: Any) -> None:
    """Refuse a parameter value its schema type cannot hold."""
    numeric = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not numeric or math.isnan(value):
        raise ValueError(
            f"parameter {key}={value!r} of policy {policy!r} must be a number"
        )
    if kind == "int" and not float(value).is_integer():
        raise ValueError(
            f"parameter {key}={value!r} of policy {policy!r} must be an "
            "integer"
        )
