"""Substrates behind the ``System`` protocol (node, cluster, fleet).

The paper's monitoring/statistics/rejuvenation loop runs unchanged
against any registered substrate: pass ``system="ecommerce"`` /
``"cluster"`` / ``"fleet"`` (or a configured spec) to the job layer,
the fault campaign runner, or the CLI, and the same policies, CRN seed
protocols, fault injections, and observability ride along.  See
``docs/systems.md`` for the protocol contract and the fleet
schedulers.
"""

from repro.systems.cluster import ClusterSpec
from repro.systems.ecommerce import EcommerceSpec
from repro.systems.fleet import (
    FLEET_SHARD_RULE,
    FleetSpec,
    FleetSystem,
    ShardOutcome,
    shard_seed,
    split_proportionally,
)
from repro.systems.protocol import (
    SYSTEM_KINDS,
    ObsSpec,
    ObsSinks,
    SystemRun,
    SystemSpec,
    register_system,
    resolve_system,
    system_spec_from_dict,
)
from repro.systems.schedulers import SCHEDULER_KINDS, SchedulerSpec

__all__ = [
    "SYSTEM_KINDS",
    "SCHEDULER_KINDS",
    "FLEET_SHARD_RULE",
    "ClusterSpec",
    "EcommerceSpec",
    "FleetSpec",
    "FleetSystem",
    "ObsSinks",
    "ObsSpec",
    "SchedulerSpec",
    "ShardOutcome",
    "SystemRun",
    "SystemSpec",
    "register_system",
    "resolve_system",
    "shard_seed",
    "split_proportionally",
    "system_spec_from_dict",
]
