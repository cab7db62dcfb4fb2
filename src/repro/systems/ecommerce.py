"""The single-node Section-3 substrate behind the ``System`` protocol.

The default -- and the identity baseline: a job with ``system=None``
(or ``system="ecommerce"``) runs through this spec and must produce
bit-identical results to the pre-protocol job runner, which is what
keeps every CRN seed-protocol and backend bit-identity test, and every
committed ledger baseline, valid across the refactor.

:func:`build_system` is the one place a job's sources become a live
:class:`~repro.ecommerce.system.ECommerceSystem`; the cluster spec and
the fleet's shards call it with their topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.systems.protocol import (
    ObsSpec,
    SystemRun,
    SystemSpec,
    register_system,
)


class _PolicyFactory:
    """Picklable per-node policy factory over a job's policy source."""

    __slots__ = ("source",)

    def __init__(self, source: Any) -> None:
        self.source = source

    def __call__(self):
        from repro.exec.jobs import build_policy

        return build_policy(self.source)


def build_system(
    config: Any,
    arrival: Any,
    policy: Any,
    seed: Optional[int] = None,
    obs: Optional[ObsSpec] = None,
    faults: Any = None,
    **topology: Any,
) -> SystemRun:
    """A live system from a job's sources, run under its obs sinks.

    ``topology`` holds the multi-node constructor arguments
    (``n_nodes``, ``balancer``, ``coordinator``, ...); without any it
    is the paper's single node.  Each node gets a fresh policy from
    the ``policy`` source.
    """
    from repro.ecommerce.system import ECommerceSystem
    from repro.exec.jobs import build_arrival

    sinks = (obs if obs is not None else ObsSpec()).build()
    system = ECommerceSystem(
        config,
        build_arrival(arrival),
        policy=_PolicyFactory(policy),
        seed=seed,
        telemetry=sinks.telemetry,
        tracer=sinks.sink,
        faults=faults,
        profiler=sinks.profiler,
        **topology,
    )
    return SystemRun(system, sinks)


@register_system
@dataclass(frozen=True)
class EcommerceSpec(SystemSpec):
    """One Section-3 e-commerce node (the paper's own substrate)."""

    kind = "ecommerce"

    def build(
        self,
        config: Any,
        arrival: Any,
        policy: Any,
        seed: Optional[int] = None,
        obs: Optional[ObsSpec] = None,
        faults: Any = None,
    ) -> SystemRun:
        return build_system(config, arrival, policy, seed, obs, faults)
