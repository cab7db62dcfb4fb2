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

from repro.cluster import (
    JoinShortestQueue,
    RollingCoordinator,
    RoundRobin,
    WeightedRoundRobin,
)
from repro.core import (
    CLTA,
    PAPER_SLO,
    PolicySpec,
    SARAA,
    SRAA,
    BucketChain,
    CUSUMPolicy,
    DeterministicThreshold,
    EWMAPolicy,
    NeverRejuvenate,
    PeriodicRejuvenation,
    QuantilePolicy,
    RejuvenationPolicy,
    ResourceExhaustionPolicy,
    RiskBasedThreshold,
    ServiceLevelObjective,
    StaticRejuvenation,
    TrendPolicy,
    available_policies,
    make_policy,
)
from repro.ctmc import SampleMeanChain, clt_false_alarm_probability
from repro.degradation import DegradableSystem
from repro.ecommerce import (
    ArrivalSpec,
    ECommerceSystem,
    PAPER_CONFIG,
    PoissonArrivals,
    SystemConfig,
    Telemetry,
    run_once,
    run_replications,
    simulate_mmc_response_times,
)
from repro.exec import (
    ProcessPoolBackend,
    ReplicationJob,
    SerialBackend,
    make_backend,
    use_backend,
)
from repro.experiments import Scale, run_experiment
from repro.faults import FaultScenario, builtin_scenarios, run_campaign
from repro.availability import HuangRejuvenationModel
from repro.monitoring import (
    AdaptiveSLO,
    RejuvenationMonitor,
    calibrate_slo,
    robust_calibrate_slo,
)
from repro.obs import (
    MetricsRegistry,
    TraceSession,
    Tracer,
    explain_trace,
    use_tracing,
)
from repro.obs.ledger import version_string
from repro.queueing import MMcModel
from repro.tuning import ParameterAdvisor, ParameterScore, default_grid

# Resolved from installed distribution metadata when available, with a
# "+src" marker for PYTHONPATH source-tree use (see repro.obs.ledger).
from repro.obs.ledger.provenance import package_version as _package_version

__version__ = _package_version()

__all__ = [
    "AdaptiveSLO",
    "ArrivalSpec",
    "BucketChain",
    "CLTA",
    "CUSUMPolicy",
    "DegradableSystem",
    "DeterministicThreshold",
    "ECommerceSystem",
    "EWMAPolicy",
    "FaultScenario",
    "HuangRejuvenationModel",
    "JoinShortestQueue",
    "MMcModel",
    "MetricsRegistry",
    "NeverRejuvenate",
    "PAPER_CONFIG",
    "PAPER_SLO",
    "ParameterAdvisor",
    "ParameterScore",
    "PeriodicRejuvenation",
    "PoissonArrivals",
    "PolicySpec",
    "ProcessPoolBackend",
    "QuantilePolicy",
    "RejuvenationMonitor",
    "RejuvenationPolicy",
    "ReplicationJob",
    "ResourceExhaustionPolicy",
    "RiskBasedThreshold",
    "RollingCoordinator",
    "RoundRobin",
    "SARAA",
    "SRAA",
    "SampleMeanChain",
    "Scale",
    "SerialBackend",
    "ServiceLevelObjective",
    "StaticRejuvenation",
    "SystemConfig",
    "Telemetry",
    "TraceSession",
    "Tracer",
    "TrendPolicy",
    "WeightedRoundRobin",
    "available_policies",
    "builtin_scenarios",
    "default_grid",
    "calibrate_slo",
    "clt_false_alarm_probability",
    "explain_trace",
    "make_backend",
    "make_policy",
    "robust_calibrate_slo",
    "run_campaign",
    "run_experiment",
    "run_once",
    "run_replications",
    "simulate_mmc_response_times",
    "use_backend",
    "use_tracing",
    "version_string",
    "__version__",
]
