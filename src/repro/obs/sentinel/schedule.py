"""Declarative recurring-campaign schedules on a virtual clock.

A :class:`ScheduleSpec` says *what* to run (a campaign parameter block,
validated up front by :meth:`~repro.serve.jobs.JobManager.validate_campaign`)
and *when* (a fixed interval in seconds, or a 5-field cron expression
evaluated in UTC).  The :class:`Scheduler` owns the specs and fires due
ones when :meth:`Scheduler.tick` is called with the current time --
nothing inside this module reads a wall clock, so tests and CI drive
ticks explicitly (``POST /api/schedules/tick``) and every decision is
a pure function of (specs, tick times).

Determinism rules:

* A schedule fires **at most once per tick** however late the tick is;
  periods missed while nobody ticked are counted (``missed``), not
  replayed -- a serve process that was down for an hour does not burst
  sixty backlogged campaigns on restart.
* Overlap policy is explicit: ``on_overlap="skip"`` (default) counts a
  skip when the schedule's previous job is still queued/running, while
  ``"queue"`` submits anyway and lets the job manager's run lock
  serialise execution.
* Launched jobs carry ``source="schedule:<name>"`` and the virtual
  fire time, and are recorded into the run ledger by the job manager's
  normal path -- manifest hashes byte-identical to the same campaign
  launched via the CLI (pinned by ``tests/serve/test_sentinel_api.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

__all__ = ["CronExpr", "ScheduleSpec", "Scheduler", "parse_cron"]

#: Field ranges for the 5 cron fields, in order.
_CRON_FIELDS: Tuple[Tuple[str, int, int], ...] = (
    ("minute", 0, 59),
    ("hour", 0, 23),
    ("day", 1, 31),
    ("month", 1, 12),
    ("weekday", 0, 6),  # 0 = Monday (python datetime.weekday())
)

#: Names accepted in the day-of-week field, already in the internal
#: Monday=0 convention (numeric tokens use classic cron 0/7=Sunday and
#: are converted in ``atom``).
_DOW_NAMES = {
    "mon": 0, "tue": 1, "wed": 2, "thu": 3, "fri": 4, "sat": 5, "sun": 6,
}
_MONTH_NAMES = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}


def _parse_field(
    text: str, name: str, lo: int, hi: int
) -> Tuple[FrozenSet[int], bool]:
    """One cron field -> (allowed values, was-it-a-star)."""
    names = _DOW_NAMES if name == "weekday" else (
        _MONTH_NAMES if name == "month" else {}
    )

    def atom(token: str) -> int:
        token = token.strip().lower()
        if token in names:
            return names[token]
        try:
            value = int(token)
        except ValueError:
            raise ValueError(
                f"cron {name} field: {token!r} is not a number"
            ) from None
        if name == "weekday":
            # Classic cron: 0-7 with both 0 and 7 = Sunday; convert to
            # python's Monday=0 convention used by datetime.weekday().
            if not 0 <= value <= 7:
                raise ValueError(f"cron weekday {value} out of range 0-7")
            return (value - 1) % 7
        if not lo <= value <= hi:
            raise ValueError(
                f"cron {name} {value} out of range {lo}-{hi}"
            )
        return value

    allowed: set = set()
    star = False
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"cron {name} field has an empty list item")
        step = 1
        if "/" in part:
            part, step_text = part.split("/", 1)
            step = int(step_text)
            if step < 1:
                raise ValueError(f"cron {name} step must be >= 1")
        if part == "*":
            if step == 1:
                star = True
            if name == "weekday":
                allowed.update(range(0, 7, 1) if step == 1 else set())
                if step != 1:
                    # Steps over the classic 0-6 Sunday-first range.
                    allowed.update((v - 1) % 7 for v in range(0, 7, step))
            else:
                allowed.update(range(lo, hi + 1, step))
        elif "-" in part:
            start_text, end_text = part.split("-", 1)
            start, end = atom(start_text), atom(end_text)
            if name == "weekday":
                # Ranges wrap in converted space: sat-sun == 6,0.
                values = []
                v = start
                while True:
                    values.append(v)
                    if v == end:
                        break
                    v = (v + 1) % 7
                allowed.update(values[::step])
            else:
                if start > end:
                    raise ValueError(
                        f"cron {name} range {part!r} is inverted"
                    )
                allowed.update(range(start, end + 1, step))
        else:
            if step != 1:
                raise ValueError(
                    f"cron {name} step needs a range or '*': {part!r}"
                )
            allowed.add(atom(part))
    return frozenset(allowed), star


@dataclass(frozen=True)
class CronExpr:
    """A parsed 5-field cron expression (minute-resolution, UTC)."""

    text: str
    minutes: FrozenSet[int]
    hours: FrozenSet[int]
    days: FrozenSet[int]
    months: FrozenSet[int]
    weekdays: FrozenSet[int]
    #: Classic cron day semantics: when *both* day-of-month and
    #: day-of-week are restricted, a date matching either fires.
    day_star: bool
    weekday_star: bool

    def _day_matches(self, when: datetime) -> bool:
        dom = when.day in self.days
        dow = when.weekday() in self.weekdays
        if self.day_star and self.weekday_star:
            return True
        if self.day_star:
            return dow
        if self.weekday_star:
            return dom
        return dom or dow

    def matches(self, when: datetime) -> bool:
        return (
            when.minute in self.minutes
            and when.hour in self.hours
            and when.month in self.months
            and self._day_matches(when)
        )

    def next_fire(self, after_s: float) -> float:
        """Epoch seconds of the first match strictly after ``after_s``."""
        when = datetime.fromtimestamp(after_s, tz=timezone.utc)
        when = when.replace(second=0, microsecond=0) + timedelta(minutes=1)
        # Bounded scan with month/day/hour skipping: at most ~8 years of
        # months covers every satisfiable spec (leap-day cron included).
        for _ in range(100):
            while when.month not in self.months:
                when = (when.replace(day=1, hour=0, minute=0)
                        + timedelta(days=32)).replace(day=1)
            scanned_days = 0
            while not self._day_matches(when):
                when = when.replace(hour=0, minute=0) + timedelta(days=1)
                scanned_days += 1
                if when.month not in self.months or scanned_days > 366:
                    break
            else:
                while when.hour not in self.hours:
                    when = when.replace(minute=0) + timedelta(hours=1)
                    if not self._day_matches(when):
                        break
                else:
                    while when.minute not in self.minutes:
                        when = when + timedelta(minutes=1)
                        if when.hour not in self.hours:
                            break
                    else:
                        return when.timestamp()
        raise ValueError(f"cron expression never fires: {self.text!r}")


def parse_cron(text: str) -> CronExpr:
    """Parse ``"minute hour day month weekday"`` (lists/ranges/steps)."""
    fields = text.split()
    if len(fields) != 5:
        raise ValueError(
            f"cron expression needs 5 fields, got {len(fields)}: {text!r}"
        )
    parsed = []
    stars = []
    for value, (name, lo, hi) in zip(fields, _CRON_FIELDS):
        allowed, star = _parse_field(value, name, lo, hi)
        if not allowed:
            raise ValueError(f"cron {name} field matches nothing: {value!r}")
        parsed.append(allowed)
        stars.append(star)
    return CronExpr(
        text=text,
        minutes=parsed[0],
        hours=parsed[1],
        days=parsed[2],
        months=parsed[3],
        weekdays=parsed[4],
        day_star=stars[2],
        weekday_star=stars[4],
    )


@dataclass(frozen=True)
class ScheduleSpec:
    """What to run and when; validated before it ever ticks."""

    name: str
    campaign: Mapping[str, Any]
    every_s: Optional[float] = None
    cron: Optional[str] = None
    on_overlap: str = "skip"
    max_runs: Optional[int] = None
    enabled: bool = True
    #: Interval anchor (epoch/virtual seconds); defaults to add time.
    anchor_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("schedule name must be a non-empty string")
        for name, kind, what in (
            ("every_s", (int, float), "a number"),
            ("anchor_s", (int, float), "a number"),
            ("max_runs", int, "an integer"),
            ("cron", str, "a string"),
        ):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, kind)
            ):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if (self.every_s is None) == (self.cron is None):
            raise ValueError(
                "schedule needs exactly one of every_s or cron"
            )
        if self.every_s is not None and self.every_s <= 0:
            raise ValueError("every_s must be positive")
        if self.cron is not None:
            parse_cron(self.cron)  # raises on bad expressions
        if self.on_overlap not in ("skip", "queue"):
            raise ValueError("on_overlap must be 'skip' or 'queue'")
        if self.max_runs is not None and self.max_runs < 1:
            raise ValueError("max_runs must be >= 1")

    @staticmethod
    def from_dict(spec: Mapping[str, Any]) -> "ScheduleSpec":
        if not isinstance(spec, Mapping):
            raise ValueError("schedule spec must be a JSON object")
        known = {
            "name", "campaign", "every_s", "cron", "on_overlap",
            "max_runs", "enabled", "anchor_s",
        }
        unknown = set(spec) - known
        if unknown:
            raise ValueError(
                f"unknown schedule field(s): {sorted(unknown)}"
            )
        campaign = spec.get("campaign")
        if not isinstance(campaign, Mapping):
            raise ValueError("schedule needs a 'campaign' object")
        every_s = spec.get("every_s")
        return ScheduleSpec(
            name=spec.get("name", ""),
            campaign=dict(campaign),
            # A whole number of seconds still reports as a float.
            every_s=float(every_s) if type(every_s) is int else every_s,
            cron=spec.get("cron"),
            on_overlap=spec.get("on_overlap", "skip"),
            max_runs=spec.get("max_runs"),
            enabled=bool(spec.get("enabled", True)),
            anchor_s=spec.get("anchor_s"),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "campaign": dict(self.campaign),
            "every_s": self.every_s,
            "cron": self.cron,
            "on_overlap": self.on_overlap,
            "max_runs": self.max_runs,
            "enabled": self.enabled,
            "anchor_s": self.anchor_s,
        }


@dataclass
class _ScheduleState:
    spec: ScheduleSpec
    next_due: Optional[float]
    launched: List[str] = field(default_factory=list)
    skipped: int = 0
    missed: int = 0
    last_fired: Optional[float] = None


class Scheduler:
    """Virtual-clock schedule registry over a job manager.

    The manager is duck-typed: anything with ``validate_campaign``,
    ``submit_campaign(params, source=, scheduled_for=)`` and
    ``has_active(source=)`` works, so the deterministic unit tests
    drive a stub while the serve layer passes the real
    :class:`~repro.serve.jobs.JobManager`.
    """

    def __init__(self, jobs: Any):
        self.jobs = jobs
        self._lock = threading.Lock()
        self._states: Dict[str, _ScheduleState] = {}

    # ------------------------------------------------------------------
    def add(
        self, spec: Any, now: float = 0.0
    ) -> Dict[str, Any]:
        """Register a spec (or spec dict); returns its state snapshot."""
        if not isinstance(spec, ScheduleSpec):
            spec = ScheduleSpec.from_dict(spec)
        # Campaign validation happens here so a bad schedule is a 400
        # at POST time, not a failed job at tick time.
        self.jobs.validate_campaign(dict(spec.campaign))
        with self._lock:
            if spec.name in self._states:
                raise ValueError(f"schedule {spec.name!r} already exists")
            self._states[spec.name] = _ScheduleState(
                spec=spec, next_due=self._first_due(spec, now)
            )
            return self._snapshot(self._states[spec.name])

    def remove(self, name: str) -> bool:
        with self._lock:
            return self._states.pop(name, None) is not None

    def get(self, name: str) -> Dict[str, Any]:
        with self._lock:
            state = self._states.get(name)
            if state is None:
                raise LookupError(f"no schedule {name!r}")
            return self._snapshot(state)

    def states(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [self._snapshot(s) for s in self._states.values()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._states)

    # ------------------------------------------------------------------
    def tick(self, now: float) -> List[Dict[str, Any]]:
        """Fire every due schedule once; returns launched job dicts.

        Ticks may arrive late or out of band; a schedule fires at most
        once per tick and its ``next_due`` always advances past ``now``
        (periods nobody ticked through are counted as ``missed``).
        """
        launched: List[Dict[str, Any]] = []
        with self._lock:
            states = list(self._states.values())
        for state in states:
            spec = state.spec
            with self._lock:
                if (
                    not spec.enabled
                    or state.next_due is None
                    or state.next_due > now
                ):
                    continue
                fire_ts = state.next_due
                state.missed += self._advance(state, now)
                done = (
                    spec.max_runs is not None
                    and len(state.launched) + 1 >= spec.max_runs
                )
                skip = (
                    spec.on_overlap == "skip"
                    and self.jobs.has_active(source=f"schedule:{spec.name}")
                )
                if skip:
                    state.skipped += 1
                    continue
                state.last_fired = fire_ts
            job = self.jobs.submit_campaign(
                dict(spec.campaign),
                source=f"schedule:{spec.name}",
                scheduled_for=fire_ts,
            )
            with self._lock:
                state.launched.append(job["id"])
                if done:
                    state.next_due = None
            launched.append(job)
        return launched

    # ------------------------------------------------------------------
    @staticmethod
    def _first_due(spec: ScheduleSpec, now: float) -> float:
        if spec.every_s is not None:
            anchor = now if spec.anchor_s is None else spec.anchor_s
            if anchor > now:
                return anchor
            periods = int((now - anchor) // spec.every_s) + 1
            return anchor + periods * spec.every_s
        return parse_cron(spec.cron or "").next_fire(now)

    @staticmethod
    def _advance(state: _ScheduleState, now: float) -> int:
        """Move ``next_due`` strictly past ``now``; returns missed count."""
        spec = state.spec
        missed = 0
        if spec.every_s is not None:
            due = state.next_due or now
            due += spec.every_s
            while due <= now:
                due += spec.every_s
                missed += 1
            state.next_due = due
        else:
            cron = parse_cron(spec.cron or "")
            due = cron.next_fire(state.next_due or now)
            while due <= now:
                due = cron.next_fire(due)
                missed += 1
            state.next_due = due
        return missed

    @staticmethod
    def _snapshot(state: _ScheduleState) -> Dict[str, Any]:
        out = state.spec.to_dict()
        out.update(
            {
                "next_due": state.next_due,
                "runs": len(state.launched),
                "launched": list(state.launched),
                "skipped": state.skipped,
                "missed": state.missed,
                "last_fired": state.last_fired,
            }
        )
        return out
