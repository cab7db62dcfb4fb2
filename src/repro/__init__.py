"""repro -- software rejuvenation triggered by customer-affecting metrics.

A complete, from-scratch reproduction of

    Avritzer, Bondi, Grottke, Trivedi, Weyuker:
    "Performance Assurance via Software Rejuvenation: Monitoring,
    Statistics and Algorithms", Proc. DSN 2006, pp. 435-444.

The library contains the paper's three rejuvenation algorithms (SRAA,
SARAA, CLTA) plus every substrate its evaluation depends on: a
discrete-event simulation kernel, the Section-3 e-commerce system model,
analytical M/M/c queueing, a CTMC engine standing in for SHARPE, and the
statistics of Section 4.1.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quick start::

    from repro import SRAA, PAPER_SLO, RejuvenationMonitor

    policy = SRAA(PAPER_SLO, sample_size=3, n_buckets=2, depth=5)
    monitor = RejuvenationMonitor(policy, on_rejuvenate=my_restart_hook)
    for response_time in live_metric_stream:
        monitor.feed(response_time)
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "HuangRejuvenationModel": ".availability.huang",
    "JoinShortestQueue": ".cluster.balancer",
    "RoundRobin": ".cluster.balancer",
    "WeightedRoundRobin": ".cluster.balancer",
    "RollingCoordinator": ".cluster.coordinator",
    "RejuvenationPolicy": ".core.base",
    "NeverRejuvenate": ".core.baselines",
    "PeriodicRejuvenation": ".core.baselines",
    "BucketChain": ".core.buckets",
    "CLTA": ".core.buckets",
    "SARAA": ".core.buckets",
    "SRAA": ".core.buckets",
    "StaticRejuvenation": ".core.buckets",
    "CUSUMPolicy": ".core.control_charts",
    "EWMAPolicy": ".core.control_charts",
    "available_policies": ".core.factory",
    "make_policy": ".core.factory",
    "ResourceExhaustionPolicy": ".core.proactive",
    "QuantilePolicy": ".core.quantile",
    "PAPER_SLO": ".core.sla",
    "ServiceLevelObjective": ".core.sla",
    "PolicySpec": ".core.spec",
    "DeterministicThreshold": ".core.threshold",
    "RiskBasedThreshold": ".core.threshold",
    "TrendPolicy": ".core.trend",
    "SampleMeanChain": ".ctmc.sample_mean",
    "clt_false_alarm_probability": ".ctmc.sample_mean",
    "PAPER_CONFIG": ".ecommerce.config",
    "SystemConfig": ".ecommerce.config",
    "run_once": ".ecommerce.runner",
    "run_replications": ".ecommerce.runner",
    "simulate_mmc_response_times": ".ecommerce.runner",
    "ArrivalSpec": ".ecommerce.spec",
    "ECommerceSystem": ".ecommerce.system",
    "Telemetry": ".ecommerce.telemetry",
    "PoissonArrivals": ".ecommerce.workload",
    "ProcessPoolBackend": ".exec.backends",
    "SerialBackend": ".exec.backends",
    "make_backend": ".exec.backends",
    "use_backend": ".exec.backends",
    "ReplicationJob": ".exec.jobs",
    "run_experiment": ".experiments.registry",
    "Scale": ".experiments.scale",
    "run_campaign": ".faults.campaign",
    "FaultScenario": ".faults.scenario",
    "builtin_scenarios": ".faults.zoo",
    "AdaptiveSLO": ".monitoring.adaptive",
    "calibrate_slo": ".monitoring.calibration",
    "robust_calibrate_slo": ".monitoring.calibration",
    "RejuvenationMonitor": ".monitoring.monitor",
    "explain_trace": ".obs.explain",
    "version_string": ".obs.ledger.provenance",
    "MetricsRegistry": ".obs.metrics",
    "TraceSession": ".obs.session",
    "use_tracing": ".obs.session",
    "Tracer": ".obs.tracer",
    "MMcModel": ".queueing.mmc",
    "ParameterAdvisor": ".tuning",
    "ParameterScore": ".tuning",
    "default_grid": ".tuning",
    "__version__": "._version",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
