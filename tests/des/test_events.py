"""Event queue semantics: ordering, ties, cancellation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des.events import Event, EventQueue


def _noop() -> None:
    pass


class TestEvent:
    def test_cancel_marks_event(self):
        event = Event(1.0, _noop)
        assert not event.cancelled
        event.cancel()
        assert event.cancelled

    # Events are ordered by the queue's (time, sequence) heap keys, never
    # by comparing Event objects.
    def test_ordering_is_by_time(self):
        queue = EventQueue()
        late = queue.push(Event(2.0, _noop))
        early = queue.push(Event(1.0, _noop))
        assert early.sequence > late.sequence
        assert queue.pop() is early
        assert queue.pop() is late

    def test_ties_broken_by_sequence(self):
        queue = EventQueue()
        first = queue.push(Event(1.0, _noop))
        second = queue.push(Event(1.0, _noop))
        assert first.sequence < second.sequence
        assert queue.pop() is first
        assert queue.pop() is second


class _Incomparable(Event):
    """An event that fails the test if the heap ever compares it."""

    __slots__ = ()

    def __lt__(self, other):
        raise AssertionError("the event heap compared two events")

    __gt__ = __le__ = __ge__ = __lt__


class TestEventQueue:
    def test_same_time_ties_pop_fifo_without_comparing_events(self):
        queue = EventQueue()
        times = [2.0, 1.0, 2.0, 1.0, 1.0, 3.0, 2.0, 1.0] * 8
        events = [queue.push(_Incomparable(t, _noop)) for t in times]
        popped = [queue.pop() for _ in range(len(events))]
        expected = sorted(events, key=lambda event: (event.time, event.sequence))
        assert popped == expected

    def test_pop_returns_time_order(self):
        queue = EventQueue()
        times = [5.0, 1.0, 3.0, 2.0, 4.0]
        for t in times:
            queue.push(Event(t, _noop))
        popped = [queue.pop().time for _ in range(len(times))]
        assert popped == sorted(times)

    def test_simultaneous_events_pop_fifo(self):
        queue = EventQueue()
        events = [Event(1.0, _noop, kind=str(i)) for i in range(5)]
        for event in events:
            queue.push(event)
        kinds = [queue.pop().kind for _ in range(5)]
        assert kinds == ["0", "1", "2", "3", "4"]

    def test_len_counts_live_events_only(self):
        queue = EventQueue()
        kept = queue.push(Event(1.0, _noop))
        dropped = queue.push(Event(2.0, _noop))
        assert len(queue) == 2
        queue.cancel(dropped)
        assert len(queue) == 1
        assert queue.pop() is kept
        assert len(queue) == 0

    def test_cancelled_event_never_pops(self):
        queue = EventQueue()
        dropped = queue.push(Event(1.0, _noop))
        kept = queue.push(Event(2.0, _noop))
        queue.cancel(dropped)
        assert queue.pop() is kept

    def test_double_cancel_is_noop(self):
        queue = EventQueue()
        event = queue.push(Event(1.0, _noop))
        queue.push(Event(2.0, _noop))
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        dropped = queue.push(Event(1.0, _noop))
        kept = queue.push(Event(2.0, _noop))
        queue.cancel(dropped)
        assert queue.peek() is kept
        assert len(queue) == 1  # peek does not consume

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek() is None

    def test_push_cancelled_event_rejected(self):
        event = Event(1.0, _noop)
        event.cancel()
        with pytest.raises(ValueError):
            EventQueue().push(event)

    def test_push_same_event_twice_rejected(self):
        queue = EventQueue()
        event = queue.push(Event(1.0, _noop))
        with pytest.raises(ValueError):
            queue.push(event)

    def test_clear_empties_queue(self):
        queue = EventQueue()
        for t in (1.0, 2.0):
            queue.push(Event(t, _noop))
        queue.clear()
        assert len(queue) == 0
        assert queue.peek() is None

    def test_bool_reflects_liveness(self):
        queue = EventQueue()
        assert not queue
        event = queue.push(Event(1.0, _noop))
        assert queue
        queue.cancel(event)
        assert not queue

    def test_iter_pending_excludes_cancelled(self):
        queue = EventQueue()
        kept = queue.push(Event(1.0, _noop))
        dropped = queue.push(Event(2.0, _noop))
        queue.cancel(dropped)
        assert list(queue.iter_pending()) == [kept]

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
    def test_property_pop_order_is_sorted(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(Event(t, _noop))
        popped = [queue.pop().time for _ in range(len(times))]
        assert popped == sorted(times)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=40),
        st.sets(st.integers(min_value=0, max_value=39)),
    )
    def test_property_cancellation_removes_exactly_those(self, times, drop):
        queue = EventQueue()
        events = [queue.push(Event(t, _noop)) for t in times]
        for index in drop:
            if index < len(events):
                queue.cancel(events[index])
        expected = sorted(
            t
            for i, t in enumerate(times)
            if not (i in drop)
        )
        popped = [queue.pop().time for _ in range(len(queue))]
        assert popped == expected
