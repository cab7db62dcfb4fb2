"""The DES profiler: where does a simulated second of work go?

Attributes wall-clock and event counts to the subsystems of a run --
engine dispatch by event kind (arrivals, completions, telemetry probes,
fault injections) plus the policy's decision path -- so "make the hot
path faster" stops being guesswork.  Enabled per job with
``--profile`` / ``ReplicationJob.profile``; the per-run
:class:`Profile` snapshot is picklable, rides back on
``RunResult.profile``, and merges across replications in submission
order.

Determinism note: event *counts* are deterministic (same simulation,
same events) and are exported to the metrics registry; wall-clock
*seconds* are machine noise by nature and only appear in the printed
table, never in metrics snapshots -- the bit-identical serial vs
process-pool contract holds for everything written to disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Event-kind -> subsystem attribution for the Section-3 stack.
KIND_SUBSYSTEMS: Dict[str, str] = {
    "arrival": "workload",
    "done": "node",
    "probe": "telemetry",
    "fault": "injectors",
    "policy.observe": "policy",
    "": "engine",
}


#: Kinds that are *nested slices* of another kind's time (e.g. the
#: policy's ``observe`` runs inside a completion event).  They appear
#: as their own rows but are excluded from the totals, so shares do
#: not double-count.
NESTED_KINDS = frozenset({"policy.observe"})


def subsystem_of(kind: str) -> str:
    """The subsystem an event kind belongs to (``engine`` fallback)."""
    return KIND_SUBSYSTEMS.get(kind, "engine")


@dataclass(frozen=True)
class ProfileEntry:
    """One attribution row: a kind's events and wall-clock seconds."""

    kind: str
    subsystem: str
    events: int
    seconds: float


@dataclass(frozen=True)
class Profile:
    """A picklable profiler snapshot (entries sorted by kind)."""

    entries: Tuple[ProfileEntry, ...]

    @property
    def total_events(self) -> int:
        """Fired DES events (nested slices are calls, not events)."""
        return sum(
            entry.events
            for entry in self.entries
            if entry.kind not in NESTED_KINDS
        )

    @property
    def total_seconds(self) -> float:
        """Event wall-clock; nested slices excluded (already counted)."""
        return sum(
            entry.seconds
            for entry in self.entries
            if entry.kind not in NESTED_KINDS
        )

    def merge(self, other: "Profile") -> "Profile":
        """A new profile summing both (fold in submission order)."""
        combined: Dict[str, List[float]] = {}
        for entry in self.entries + other.entries:
            slot = combined.setdefault(entry.kind, [0, 0.0])
            slot[0] += entry.events
            slot[1] += entry.seconds
        return Profile(
            entries=tuple(
                ProfileEntry(
                    kind=kind,
                    subsystem=subsystem_of(kind),
                    events=int(events),
                    seconds=seconds,
                )
                for kind, (events, seconds) in sorted(combined.items())
            )
        )

    def format_table(self) -> str:
        """An aligned per-subsystem attribution table."""
        if not self.entries:
            return "profile: no events recorded"
        total_s = self.total_seconds or 1.0
        header = (
            f"{'subsystem':<12} {'kind':<16} {'events':>10} "
            f"{'seconds':>9} {'share':>6}"
        )
        lines = [header, "-" * len(header)]
        ordered = sorted(
            self.entries, key=lambda e: (-e.seconds, e.subsystem, e.kind)
        )
        for entry in ordered:
            nested = " (nested)" if entry.kind in NESTED_KINDS else ""
            lines.append(
                f"{entry.subsystem:<12} {entry.kind or '(none)':<16} "
                f"{entry.events:>10} {entry.seconds:>9.4f} "
                f"{entry.seconds / total_s:>6.1%}{nested}"
            )
        lines.append(
            f"{'total':<12} {'':<16} {self.total_events:>10} "
            f"{self.total_seconds:>9.4f} {1:>6.0%}"
        )
        return "\n".join(lines)

    def to_registry(self, registry) -> None:
        """Export the *deterministic* counts as metrics.

        Only event counts go in (``repro_profile_events_total``);
        wall-clock seconds would break the bit-identical metrics
        contract across backends.
        """
        for entry in self.entries:
            registry.counter(
                "repro_profile_events_total",
                subsystem=entry.subsystem,
                kind=entry.kind or "none",
            ).inc(entry.events)


class DESProfiler:
    """Accumulates per-kind event counts and wall-clock seconds.

    The :class:`~repro.des.engine.Simulator` calls :meth:`account` once
    per fired event when a profiler is installed (one ``perf_counter``
    pair per event); :class:`~repro.ecommerce.system.ECommerceSystem`
    additionally accounts the policy's ``observe`` calls under the
    ``policy.observe`` kind.
    """

    __slots__ = ("_counts", "_seconds", "clock")

    def __init__(
        self, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self._counts: Dict[str, int] = {}
        self._seconds: Dict[str, float] = {}
        #: The wall clock used by callers to bracket work.
        self.clock = clock if clock is not None else time.perf_counter

    def account(self, kind: str, seconds: float) -> None:
        """Attribute ``seconds`` of wall-clock to events of ``kind``."""
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self._seconds[kind] = self._seconds.get(kind, 0.0) + seconds

    def snapshot(self) -> Profile:
        """The picklable, sorted profile so far."""
        return Profile(
            entries=tuple(
                ProfileEntry(
                    kind=kind,
                    subsystem=subsystem_of(kind),
                    events=self._counts[kind],
                    seconds=self._seconds[kind],
                )
                for kind in sorted(self._counts)
            )
        )

    def clear(self) -> None:
        """Forget everything (a fresh run starts clean)."""
        self._counts.clear()
        self._seconds.clear()


def merge_profiles(profiles) -> Optional[Profile]:
    """Fold many per-run profiles in submission order (None-safe)."""
    merged: Optional[Profile] = None
    for profile in profiles:
        if profile is None:
            continue
        merged = profile if merged is None else merged.merge(profile)
    return merged
