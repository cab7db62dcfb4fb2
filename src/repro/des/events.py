"""Event objects and the pending-event set.

The event queue is a binary heap of ``(time, sequence, event)`` entries.
The monotonically increasing sequence number is unique, so heap order is
decided by comparing a float and an int in C and two events are never
compared; it also gives deterministic FIFO ordering for events scheduled
at the same simulated time, which keeps replications bit-for-bit
reproducible for a given seed.

Cancellation is *lazy*: :meth:`EventQueue.cancel` marks the event and the
heap discards cancelled entries when they surface.  This is the standard
technique for discrete-event kernels where reschedules are common (e.g. a
garbage-collection stall postponing every in-service completion).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator, List, Optional, Tuple


class Event:
    """A scheduled occurrence in simulated time.

    Parameters
    ----------
    time:
        Absolute simulated time at which the event fires.
    action:
        Zero-argument callable invoked when the event fires.
    kind:
        Free-form tag used for introspection and tracing (e.g. ``"arrival"``).
    payload:
        Arbitrary data carried by the event; not interpreted by the kernel.

    :meth:`Simulator.schedule <repro.des.engine.Simulator.schedule>` and
    ``schedule_at`` build events without calling ``__init__`` and set
    every slot themselves: a new slot must be set there as well.
    """

    __slots__ = ("time", "action", "kind", "payload", "sequence", "cancelled")

    def __init__(
        self,
        time: float,
        action: Callable[[], None],
        kind: str = "",
        payload: Any = None,
    ) -> None:
        self.time = float(time)
        self.action = action
        self.kind = kind
        self.payload = payload
        self.sequence = -1  # assigned by the queue on scheduling
        self.cancelled = False

    def cancel(self) -> None:
        """Mark this event so the queue will skip it."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6g}, kind={self.kind!r}, {state})"


#: One heap entry: the event's time and sequence number are its key.
Entry = Tuple[float, int, Event]


class EventQueue:
    """A time-ordered set of pending events with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._sequence = itertools.count()

    def __len__(self) -> int:
        """Number of *non-cancelled* events still pending (O(n))."""
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    def __bool__(self) -> bool:
        self._drop_cancelled()
        return bool(self._heap)

    def push(self, event: Event) -> Event:
        """Schedule ``event`` and return it (for later cancellation)."""
        if event.cancelled:
            raise ValueError("cannot schedule a cancelled event")
        if event.sequence != -1:
            raise ValueError("event is already scheduled")
        event.sequence = sequence = next(self._sequence)
        heapq.heappush(self._heap, (event.time, sequence, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event.

        Cancelling an already-cancelled, already-fired or never-scheduled
        event is a no-op: a fired event has left the heap, so its mark is
        never read.
        """
        if event.sequence != -1:
            event.cancelled = True

    def peek(self) -> Optional[Event]:
        """Return the next live event without removing it, or ``None``."""
        self._drop_cancelled()
        return self._heap[0][2] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises
        ------
        IndexError
            If the queue holds no live events.
        """
        self._drop_cancelled()
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)[2]

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)

    def iter_pending(self) -> Iterator[Event]:
        """Iterate over live events in an unspecified order (for tests)."""
        return (event for _, _, event in self._heap if not event.cancelled)
