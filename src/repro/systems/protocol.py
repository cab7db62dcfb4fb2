"""The ``System`` protocol: one contract for every simulated substrate.

The paper's monitoring/statistics/rejuvenation loop does not care what
it runs against -- a single Section-3 node, a balanced cluster, or a
sharded fleet.  This module pins down the small contract that makes the
rest of the repo substrate-polymorphic:

``SystemSpec``
    Picklable, declarative description of a substrate (kind plus
    topology knobs).  A spec rides on a
    :class:`~repro.exec.jobs.ReplicationJob` across process boundaries
    and is part of the job's canonical manifest identity.  Its
    :meth:`~SystemSpec.build` assembles a live system *inside* the
    worker from the job's config/arrival/policy sources.

``System`` (structural, not a base class)
    What ``build`` returns: anything with
    ``run(n_transactions, warmup=0, collect_response_times=False)``
    returning a :class:`~repro.ecommerce.metrics.RunResult`, plus the
    fault-injection surface -- ``set_arrivals`` / ``inject_crash`` /
    ``emit_fault`` / ``fault_nodes`` -- and ``sim`` / ``emit_fault``
    hooks the :mod:`repro.faults` injectors schedule against.

``ObsSpec`` / ``ObsSinks``
    The observability side of a job (trace level, telemetry probe,
    live tap, DES profiler) as plain data, and the per-process sinks
    built from it.  ``ObsSinks.decorate`` applies the same result
    updates for every substrate, so live telemetry and profiling
    behave identically on a node, a cluster, or a fleet shard.

Substrates register themselves in :data:`SYSTEM_KINDS` (see
:mod:`repro.systems`); :func:`resolve_system` turns whatever a caller
passed -- ``None``, a kind name, or a spec -- into a spec instance.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, ClassVar, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ecommerce.metrics import RunResult

#: Registry of spec classes by kind name; populated by the substrate
#: modules at import time (see repro.systems.__init__).
SYSTEM_KINDS: "Dict[str, type]" = {}


def register_system(cls: type) -> type:
    """Class decorator: register a :class:`SystemSpec` by its kind."""
    kind = cls.kind
    existing = SYSTEM_KINDS.get(kind)
    if existing is not None and existing is not cls:
        raise ValueError(f"system kind {kind!r} already registered")
    SYSTEM_KINDS[kind] = cls
    return cls


@dataclass(frozen=True)
class ObsSpec:
    """Picklable description of a run's observability instrumentation.

    Mirrors the observability fields of
    :class:`~repro.exec.jobs.ReplicationJob` one-for-one; the job
    runner packs them into one of these and every substrate builds its
    sinks the same way.  Deliberately *excluded* from manifest hashes:
    instrumentation watches a run without changing it.
    """

    trace_level: Optional[str] = None
    telemetry_interval_s: Optional[float] = None
    live: Any = None
    profile: bool = False

    def build(self) -> "ObsSinks":
        """Construct the per-process sinks this spec asks for."""
        tracer = None
        if self.trace_level is not None:
            from repro.obs.tracer import Tracer

            tracer = Tracer(self.trace_level)
        tap = None
        if self.live is not None:
            tap = self.live.build()
        telemetry = None
        if self.telemetry_interval_s is not None:
            from repro.ecommerce.telemetry import Telemetry

            telemetry = Telemetry(self.telemetry_interval_s)
        profiler = None
        if self.profile:
            from repro.obs.live.profiler import DESProfiler

            profiler = DESProfiler()
        return ObsSinks(self, tracer, tap, telemetry, profiler)


class ObsSinks:
    """The live sinks built from an :class:`ObsSpec` (one process).

    ``sink`` is what a system should treat as its tracer: the real
    :class:`~repro.obs.tracer.Tracer`, the
    :class:`~repro.obs.live.LiveTap`, a tee over both, or ``None``.
    """

    __slots__ = ("spec", "tracer", "tap", "telemetry", "profiler", "sink")

    def __init__(self, spec, tracer, tap, telemetry, profiler) -> None:
        self.spec = spec
        self.tracer = tracer
        self.tap = tap
        self.telemetry = telemetry
        self.profiler = profiler
        if tap is not None:
            from repro.obs.live.tap import compose_tracers

            self.sink = compose_tracers(tracer, tap)
        else:
            self.sink = tracer

    def run_context(self):
        """The context a run executes under (GC amortisation with a tap)."""
        if self.tap is not None:
            # The tap's ring churns tracked containers; amortise the
            # cyclic collector over larger batches for the run.
            from repro.obs.live.tap import amortised_gc

            return amortised_gc()
        return contextlib.nullcontext()

    def decorate(self, result: "RunResult") -> "RunResult":
        """Attach tap/profiler products to a finished result.

        No-op (the result object passes through untouched) when
        neither a tap nor a profiler is active, which keeps the
        default path bit-identical to an uninstrumented run.
        """
        tap = self.tap
        profiler = self.profiler
        if tap is None and profiler is None:
            return result
        updates: dict = {}
        if tap is not None:
            updates["live"] = tap.freeze()
            updates["flight"] = tap.dumps()
            if self.spec.trace_level is None:
                # The tap buffers nothing; without a real tracer the
                # run stays "untraced" on the result.
                updates["trace"] = None
            if tap.display is not None:
                tap.display.final(tap)
        if profiler is not None:
            updates["profile"] = profiler.snapshot()
        return replace(result, **updates)


class SystemSpec:
    """Base class for picklable substrate descriptions.

    Subclasses are frozen dataclasses declaring a ``kind`` and their
    topology knobs, registered via :func:`register_system`.  The spec
    describes the *shape* of the system; the job still carries the
    config, arrival, and policy sources, which :meth:`build` assembles
    into a live system in whatever process the job landed in.
    """

    #: Registry name; also recorded in manifest spec hashes.
    kind: ClassVar[str] = ""

    def build(
        self,
        config: Any,
        arrival: Any,
        policy: Any,
        seed: Optional[int] = None,
        obs: Optional[ObsSpec] = None,
        faults: Any = None,
    ):
        """A live system from this spec plus the job's sources."""
        raise NotImplementedError

    def job_transactions(self, n_transactions: int) -> int:
        """Total transactions a job horizon of ``n_transactions`` means.

        Single-node scenarios state their horizon in per-node terms; a
        substrate that scales arrivals with its node count scales the
        transaction budget alike, so the simulated *time* horizon (and
        with it every scenario's degraded intervals) is preserved.
        """
        return n_transactions

    def to_dict(self) -> dict:
        """Canonical plain-data form, self-describing via ``kind``."""
        from dataclasses import asdict

        from repro.obs.ledger.canonical import to_plain

        data = {"kind": self.kind}
        data.update(to_plain(asdict(self)))
        return data

    @classmethod
    def from_dict(cls, payload: dict) -> "SystemSpec":
        """Revive from a ``to_dict`` payload (minus the ``kind`` key)."""
        return cls(**payload)


def resolve_system(system: Any) -> SystemSpec:
    """Whatever the caller passed, as a :class:`SystemSpec`.

    ``None`` means the default single-node system; a string is looked
    up in :data:`SYSTEM_KINDS` (built with defaults); a mapping is
    revived via :func:`system_spec_from_dict`; a spec instance passes
    through.
    """
    # Importing the package registers the built-in substrates.
    import repro.systems  # noqa: F401

    if system is None:
        return SYSTEM_KINDS["ecommerce"]()
    if isinstance(system, str):
        try:
            return SYSTEM_KINDS[system]()
        except KeyError:
            raise ValueError(
                f"unknown system kind {system!r}; "
                f"available: {', '.join(sorted(SYSTEM_KINDS))}"
            ) from None
    if isinstance(system, dict):
        return system_spec_from_dict(system)
    if isinstance(system, SystemSpec):
        return system
    raise TypeError(
        "system must be None, a kind name, a mapping, or a SystemSpec, "
        f"got {system!r}"
    )


def system_spec_from_dict(data: dict) -> SystemSpec:
    """Revive a spec from its :meth:`SystemSpec.to_dict` payload."""
    import repro.systems  # noqa: F401

    payload = dict(data)
    kind = payload.pop("kind", None)
    if kind is None:
        raise ValueError("system payload needs a 'kind'")
    try:
        cls = SYSTEM_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown system kind {kind!r}; "
            f"available: {', '.join(sorted(SYSTEM_KINDS))}"
        ) from None
    return cls.from_dict(payload)


class SystemRun:
    """Default runner wrapper: a concrete system plus its obs sinks.

    Delegates attribute access to the wrapped system (so the fault
    surface, ``sim``, and telemetry remain reachable), and runs it
    under the sinks' context with the standard result decoration.
    """

    def __init__(self, system: Any, sinks: ObsSinks) -> None:
        self.system = system
        self.sinks = sinks

    def __getattr__(self, name: str) -> Any:
        return getattr(self.system, name)

    def run(
        self,
        n_transactions: int,
        warmup: int = 0,
        collect_response_times: bool = False,
    ) -> "RunResult":
        with self.sinks.run_context():
            result = self.system.run(
                n_transactions,
                warmup=warmup,
                collect_response_times=collect_response_times,
            )
        return self.sinks.decorate(result)
