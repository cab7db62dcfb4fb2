"""Replication harness over the e-commerce simulator.

The paper's evaluation protocol is five independent replications of
100,000 transactions per scenario (Section 5).  ``run_replications``
implements it on top of the execution layer: each replication becomes
one declarative :class:`~repro.exec.jobs.ReplicationJob` (master seed
``seed + i``, fresh policy/arrival instances built from specs so no
detection state leaks between replications), the jobs are fanned out
through an :class:`~repro.exec.backends.ExecutionBackend`, and the
results are reassembled in replication order -- so serial and
process-pool runs are bit-identical for the same seed.
"""

from __future__ import annotations

from typing import Any, List, Optional, Union

import numpy as np

from repro.core.base import RejuvenationPolicy
from repro.ecommerce.config import SystemConfig
from repro.ecommerce.metrics import ReplicatedResult, RunResult
from repro.ecommerce.system import ECommerceSystem
from repro.ecommerce.workload import ArrivalProcess, PoissonArrivals
from repro.exec.backends import ExecutionBackend, resolve_backend
from repro.exec.jobs import (
    ArrivalSource,
    PolicySource,
    ReplicationJob,
    execute_job,
)
from repro.exec.progress import ProgressHook
from repro.obs.session import (
    active_trace_level,
    current_session,
)

def run_once(
    config: SystemConfig,
    arrivals: ArrivalProcess,
    policy: Optional[RejuvenationPolicy],
    n_transactions: int,
    seed: Optional[int] = None,
    warmup: int = 0,
    collect_response_times: bool = False,
) -> RunResult:
    """One replication of the Section-3 model."""
    system = ECommerceSystem(config, arrivals, policy=policy, seed=seed)
    return system.run(
        n_transactions,
        warmup=warmup,
        collect_response_times=collect_response_times,
    )


def replication_jobs(
    config: SystemConfig,
    arrival: ArrivalSource,
    policy: PolicySource,
    n_transactions: int,
    replications: int,
    seed: int = 0,
    warmup: int = 0,
    trace_level: Optional[str] = None,
    telemetry_interval_s: Optional[float] = None,
    live: Optional[Any] = None,
    profile: bool = False,
    system: Optional[Any] = None,
) -> List[ReplicationJob]:
    """The job list behind :func:`run_replications`, in replication order.

    This is the seed protocol in one place: replication ``i`` uses
    ``seed + i`` as its own master seed, giving independent streams
    (pinned by ``tests/experiments/test_seed_protocol.py``).

    ``trace_level`` defaults to the level of the installed
    :class:`~repro.obs.session.TraceSession` (if any), so wrapping a run
    in :func:`repro.obs.use_tracing` is enough to trace it;
    ``telemetry_interval_s`` installs a fixed-interval probe per
    replication.  ``live`` (a :class:`repro.obs.live.LiveSpec`) and
    ``profile`` stamp every job with live telemetry / DES profiling;
    the per-run state rides back on the results and merges in
    replication order.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if n_transactions < 1:
        raise ValueError("need at least one transaction")
    if trace_level is None:
        trace_level = active_trace_level()
    spec = None
    if system is not None:
        from repro.systems import resolve_system

        spec = resolve_system(system)
        n_transactions = spec.job_transactions(n_transactions)
    return [
        ReplicationJob(
            config=config,
            arrival=arrival,
            policy=policy,
            n_transactions=n_transactions,
            seed=seed + i,
            warmup=warmup,
            tag=("replication", i),
            trace_level=trace_level,
            telemetry_interval_s=telemetry_interval_s,
            live=live,
            profile=profile,
            system=spec,
        )
        for i in range(replications)
    ]


def run_replications(
    config: SystemConfig,
    arrival: ArrivalSource,
    policy: PolicySource = None,
    n_transactions: int = 0,
    replications: int = 0,
    seed: int = 0,
    warmup: int = 0,
    backend: Union[ExecutionBackend, str, None] = None,
    progress: Optional[ProgressHook] = None,
    telemetry_interval_s: Optional[float] = None,
    live: Optional[Any] = None,
    profile: bool = False,
    system: Optional[Any] = None,
) -> ReplicatedResult:
    """Independent replications of one scenario.

    Parameters
    ----------
    config:
        System parameters.
    arrival:
        Arrival source: an :class:`~repro.ecommerce.spec.ArrivalSpec`
        (picklable -- required for process-pool execution) or a
        zero-argument factory building a fresh process per replication.
    policy:
        Policy source: a :class:`~repro.core.spec.PolicySpec`, a
        zero-argument factory, or ``None`` to disable rejuvenation.
    n_transactions, replications:
        The paper uses 100,000 x 5.
    seed:
        Master seed; replication ``i`` uses ``seed + i`` as its own
        master, giving independent streams.
    warmup:
        Per-replication warm-up transactions excluded from statistics.
    backend:
        Execution backend (instance or name); ``None`` uses the
        innermost :func:`repro.exec.use_backend` context, falling back
        to the ``REPRO_WORKERS`` / ``REPRO_BACKEND`` environment.
    progress:
        Optional per-job :class:`~repro.exec.progress.JobEvent` hook.
    telemetry_interval_s:
        Optional simulated-seconds interval; installs a per-replication
        telemetry probe whose samples ride back on
        ``RunResult.telemetry``.
    live:
        Optional :class:`repro.obs.live.LiveSpec`; every replication
        runs a constant-memory live tap (and flight recorder, if the
        spec configures one) whose state rides back on
        ``RunResult.live`` / ``RunResult.flight``.
    profile:
        Attribute per-event wall-clock and counts to subsystems; the
        per-run :class:`repro.obs.live.Profile` rides back on
        ``RunResult.profile``.
    system:
        Substrate selector (``None`` = the single Section-3 node, a
        kind name, or a :class:`repro.systems.SystemSpec`); every
        replication runs against it, with ``n_transactions`` scaled by
        the substrate's convention (see ``SystemSpec.job_transactions``).

    When a :class:`~repro.obs.session.TraceSession` is installed
    (:func:`repro.obs.use_tracing`), the jobs are stamped with its
    trace level and the results ingested into it, in submission order.
    """
    jobs = replication_jobs(
        config,
        arrival,
        policy,
        n_transactions,
        replications,
        seed=seed,
        warmup=warmup,
        telemetry_interval_s=telemetry_interval_s,
        live=live,
        profile=profile,
        system=system,
    )
    runs = resolve_backend(backend).map(execute_job, jobs, progress=progress)
    session = current_session()
    if session is not None:
        session.ingest(jobs, runs)
    return ReplicatedResult(runs=tuple(runs))


def simulate_mmc_response_times(
    arrival_rate: float,
    n_transactions: int,
    seed: Optional[int] = None,
    config: Optional[SystemConfig] = None,
) -> np.ndarray:
    """Response times of the pure M/M/c reduction, in completion order.

    This is the Section-4.1 configuration for the autocorrelation study:
    the Section-3 model with kernel overhead (step 4), memory leaks
    (steps 5-6) and rejuvenation (step 8) removed.
    """
    base = config if config is not None else SystemConfig()
    reduced = base.without_degradation()
    result = run_once(
        reduced,
        PoissonArrivals(arrival_rate),
        policy=None,
        n_transactions=n_transactions,
        seed=seed,
        collect_response_times=True,
    )
    assert result.response_times is not None
    return np.asarray(result.response_times)
