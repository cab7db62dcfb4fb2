"""Declarative, picklable replication jobs.

A :class:`ReplicationJob` is plain data: the system configuration, an
*arrival source* and a *policy source* (declarative specs or zero-arg
factories), and the run parameters.  Because the job carries no live
simulator state and no closures when built from specs, it crosses
process boundaries, which is what lets
:class:`~repro.exec.backends.ProcessPoolBackend` fan the Section-5
evaluation grid out over cores.

Sources are duck-typed: anything with a ``build()`` method (e.g.
:class:`~repro.core.spec.PolicySpec`,
:class:`~repro.ecommerce.spec.ArrivalSpec`) builds a fresh instance per
job; a zero-argument callable is invoked instead (the pre-spec factory
protocol, still supported -- but closures only pickle under fork-less
backends when they are module-level functions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple, Union

from repro.systems.protocol import resolve_system

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.base import RejuvenationPolicy
    from repro.ecommerce.metrics import RunResult
    from repro.ecommerce.workload import ArrivalProcess

#: Builds a fresh arrival process per job: a spec or a factory.
ArrivalSource = Union[Any, Callable[[], "ArrivalProcess"]]
#: Builds a fresh policy per job: a spec, a factory, or None (no policy).
PolicySource = Union[Any, Callable[[], Optional["RejuvenationPolicy"]], None]


@dataclass(frozen=True)
class ReplicationJob:
    """One independent replication of the Section-3 model, as plain data.

    ``tag`` is caller bookkeeping (e.g. ``(label, load, replication)``)
    carried through the backend and surfaced in progress events; it does
    not affect execution.

    ``trace_level`` (one of :data:`repro.obs.tracer.TRACE_LEVELS`, or
    ``None`` for the near-free untraced path) makes the worker build a
    :class:`~repro.obs.tracer.Tracer` whose events ride back, encoded as
    one column batch, on ``RunResult.trace``; ``telemetry_interval_s``
    likewise installs a fixed-interval probe whose samples ride back on
    ``RunResult.telemetry``.  Both stay plain data, so the job remains
    picklable.

    ``live`` (a :class:`repro.obs.live.LiveSpec`, or ``None``) turns on
    constant-memory live telemetry: the worker builds a
    :class:`~repro.obs.live.LiveTap` -- composed with the full tracer
    via a tee when both are requested -- and the final aggregator,
    flight-recorder dumps, and (with ``profile=True``) the DES
    profiler's snapshot ride back on ``RunResult.live`` / ``flight`` /
    ``profile``.  A spec carrying a ``display`` is unpicklable by
    design: the process-pool backend then runs the job in the parent
    process, which is where a terminal renderer must live.
    """

    config: Any  # SystemConfig
    arrival: ArrivalSource
    policy: PolicySource
    n_transactions: int
    seed: Optional[int]
    warmup: int = 0
    collect_response_times: bool = False
    tag: Tuple[Any, ...] = ()
    trace_level: Optional[str] = None
    #: Unread: every traced run returns one encoded column batch.  The
    #: field stays only because the repository benchmark's sink probe
    #: still sets it; it goes with the next benchmark change.
    trace_format: Optional[str] = None
    telemetry_interval_s: Optional[float] = None
    #: Optional fault scenario (e.g. repro.faults FaultScenario) or a
    #: plain sequence of picklable injections, armed at run start.
    faults: Any = None
    #: Optional repro.obs.live LiveSpec: streaming aggregation plus the
    #: flight-recorder ring, at O(1) memory whatever the horizon.
    live: Any = None
    #: Attribute per-event wall-clock and counts to subsystems
    #: (rides back on ``RunResult.profile``).
    profile: bool = False
    #: Substrate selector: ``None`` (the default single node), a kind
    #: name from :data:`repro.systems.SYSTEM_KINDS`, or a configured
    #: :class:`~repro.systems.SystemSpec` (e.g. a ``FleetSpec``).
    system: Any = None

    def manifest_dict(self) -> dict:
        """The job's deterministic identity, as canonical plain data.

        Covers exactly the fields that shape the simulated trajectory
        -- config, sources, horizon, seed, warmup, faults.  The
        observability fields (tracing, telemetry, live taps, profiling)
        are excluded on purpose: they watch the run without changing
        it, so a traced and an untraced run of the same spec must
        share one manifest hash.
        """
        from repro.obs.ledger.canonical import to_plain

        manifest = {
            "config": to_plain(self.config),
            "arrival": to_plain(self.arrival),
            "policy": to_plain(self.policy),
            "n_transactions": int(self.n_transactions),
            "seed": self.seed,
            "warmup": int(self.warmup),
            "faults": to_plain(self.faults),
        }
        if self.system is not None:
            # Only non-default substrates appear in the manifest, so
            # every pre-protocol single-node hash (and the committed
            # ledger baselines) stays stable.
            manifest["system"] = to_plain(
                resolve_system(self.system).to_dict()
            )
        return manifest


def build_arrival(source: ArrivalSource) -> "ArrivalProcess":
    """A fresh arrival process from a spec or factory."""
    build = getattr(source, "build", None)
    if build is not None:
        return build()
    if callable(source):
        return source()
    raise TypeError(
        "arrival source must be an ArrivalSpec (or any object with a "
        f"build() method) or a zero-argument factory, got {source!r}"
    )


def build_policy(source: PolicySource) -> Optional["RejuvenationPolicy"]:
    """A fresh policy from a spec or factory (``None`` disables it)."""
    if source is None:
        return None
    build = getattr(source, "build", None)
    if build is not None:
        return build()
    if callable(source):
        return source()
    raise TypeError(
        "policy source must be a PolicySpec (or any object with a "
        "build() method), a zero-argument factory, or None, got "
        f"{source!r}"
    )


def execute_job(job: ReplicationJob) -> "RunResult":
    """Run one replication job to completion (in this process).

    Dispatches through the :mod:`repro.systems` protocol: the job's
    ``system`` spec builds the substrate (the single Section-3 node by
    default) from the job's sources, and the substrate runs under the
    job's observability sinks and fault scenario.  The result is a
    :class:`~repro.ecommerce.metrics.RunResult` whatever the substrate.
    """
    # Imported here, not at module level: repro.ecommerce.runner imports
    # this module, so a top-level import would be circular.
    from repro.systems.protocol import ObsSpec

    spec = resolve_system(job.system)
    system = spec.build(
        job.config,
        job.arrival,
        job.policy,
        seed=job.seed,
        obs=ObsSpec(
            trace_level=job.trace_level,
            telemetry_interval_s=job.telemetry_interval_s,
            live=job.live,
            profile=job.profile,
        ),
        faults=job.faults,
    )
    return system.run(
        job.n_transactions,
        warmup=job.warmup,
        collect_response_times=job.collect_response_times,
    )
