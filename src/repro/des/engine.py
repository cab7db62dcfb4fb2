"""The simulation clock and run loop."""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.des.events import Event, EventQueue

#: Allocates an :class:`Event` without running ``Event.__init__``; the
#: scheduling methods fill every slot themselves, saving a frame per event.
_new_event = object.__new__


class StopSimulation(Exception):
    """Raised from inside an event action to stop the run loop cleanly."""


class Simulator:
    """A discrete-event simulator.

    The simulator owns the clock and the pending-event set.  Model code
    schedules zero-argument callables at absolute or relative times and the
    run loop fires them in time order.  Scheduling and the run loop work on
    the queue's ``(time, sequence, event)`` heap directly.  With no tracer
    and no profiler installed, :meth:`run` fires each event inline;
    otherwise, and always from :meth:`step`, an event fires through
    :meth:`_fire`.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    2
    >>> fired
    [1.0, 2.0]
    """

    def __init__(
        self,
        start_time: float = 0.0,
        tracer: Optional[Any] = None,
        profiler: Optional[Any] = None,
    ) -> None:
        self.now = float(start_time)
        self.queue = EventQueue()
        self._heap = self.queue._heap
        self._sequence = self.queue._sequence
        self.events_fired = 0
        #: Optional :class:`repro.obs.tracer.Tracer`; engine-level
        #: records are only emitted at trace level ``all`` (they are
        #: one per fired event -- verbose by design).  ``None`` keeps
        #: the run loop's cost at a single attribute check.
        self.tracer = tracer if tracer is not None and tracer.engine else None
        #: Optional :class:`repro.obs.live.DESProfiler`; when installed,
        #: every fired event is attributed (count + wall-clock) to its
        #: ``kind``.  ``None`` keeps the loop at a single check.
        self.profiler = profiler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        kind: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule ``action`` to fire ``delay`` time units from now."""
        if not delay >= 0.0:
            if delay != delay:
                raise ValueError(f"cannot schedule at a NaN delay ({delay})")
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        event = _new_event(Event)
        event.time = time = self.now + delay
        event.action = action
        event.kind = kind
        event.payload = payload
        event.sequence = sequence = next(self._sequence)
        event.cancelled = False
        heappush(self._heap, (time, sequence, event))
        return event

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        kind: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule ``action`` at absolute simulated time ``time``."""
        if not time >= self.now:
            if time != time:
                raise ValueError(f"cannot schedule at a NaN time ({time})")
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        event = _new_event(Event)
        event.time = time = float(time)
        event.action = action
        event.kind = kind
        event.payload = payload
        event.sequence = sequence = next(self._sequence)
        event.cancelled = False
        heappush(self._heap, (time, sequence, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if already fired or cancelled)."""
        self.queue.cancel(event)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _fire(self, event: Event) -> None:
        """Advance the clock to ``event`` and run its action."""
        self.now = event.time
        self.events_fired += 1
        if self.tracer is not None:
            self.tracer.emit(
                self.now,
                "des.event",
                "des",
                kind=event.kind,
                seq=self.events_fired,
            )
        profiler = self.profiler
        if profiler is None:
            event.action()
        else:
            clock = profiler.clock
            started = clock()
            try:
                event.action()
            finally:
                profiler.account(event.kind, clock() - started)

    def step(self) -> Optional[Event]:
        """Fire the single next event; return it, or ``None`` if idle."""
        if not self.queue:
            return None
        event = self.queue.pop()
        self._fire(event)
        return event

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the event set drains, ``until`` is reached, or
        ``max_events`` events have fired in this call.

        Returns the number of events fired during this call.  An event
        whose action raises :class:`StopSimulation` counts: it did fire
        (and :attr:`events_fired` already includes it), even though its
        action was cut short.

        When stopping on ``until``, the clock is advanced to ``until`` and
        events scheduled at exactly ``until`` *are* fired (closed interval),
        matching the usual DES convention for horizon-limited runs.  An
        ``until`` before the current clock, or NaN, raises ``ValueError``.

        The tracer and profiler are read once per call: one installed or
        removed by an event's action takes effect on the next call.
        """
        if until is not None:
            if until != until:
                raise ValueError(f"cannot run until a NaN time ({until})")
            if until < self.now:
                raise ValueError(
                    f"cannot run until {until}: the clock is already at "
                    f"{self.now}"
                )
            until = float(until)
        horizon = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        heap = self._heap
        fire = self._fire
        # Uninstrumented, an event fires inline: clock, count, action.
        plain = self.tracer is None and self.profiler is None
        fired = 0
        try:
            while fired < limit:
                if not heap:
                    if until is not None and until > self.now:
                        self.now = until
                    return fired
                time, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if time > horizon:
                    self.now = until
                    return fired
                heappop(heap)
                fired += 1
                if plain:
                    self.now = time
                    self.events_fired += 1
                    event.action()
                else:
                    fire(event)
        except StopSimulation:
            pass
        return fired

    def reset(self, start_time: float = 0.0) -> None:
        """Drop all pending events and rewind the clock."""
        self.queue.clear()
        self.now = float(start_time)
        self.events_fired = 0
