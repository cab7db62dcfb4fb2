"""Simulator clock and run-loop behaviour."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.engine import Simulator, StopSimulation
from repro.des.events import Event


class TestScheduling:
    def test_actions_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start_time=10.0)
        seen = []
        sim.schedule_at(12.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_scheduling_into_the_past_rejected(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(4.0, lambda: None)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match=r"NaN .*\(nan\)"):
            sim.schedule(math.nan, lambda: None)
        assert not sim.queue
        assert sim.now == 0.0

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match=r"NaN .*\(nan\)"):
            sim.schedule_at(math.nan, lambda: None)
        assert not sim.queue

    def test_nan_until_rejected(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        with pytest.raises(ValueError, match=r"NaN .*\(nan\)"):
            sim.run(until=math.nan)
        assert fired == []
        assert sim.now == 0.0

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 3.0:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestRunLimits:
    def test_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0

    def test_until_is_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run(until=3.0)
        assert fired == [3]

    def test_run_until_beyond_last_event_advances_clock(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_until_before_now_rejected(self):
        sim = Simulator()
        fired = []
        sim.schedule(6.0, lambda: fired.append(6))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=6.0)
        with pytest.raises(ValueError, match=r"until 3.*already at 6\.0"):
            sim.run(until=3)
        assert sim.now == 6.0
        assert fired == [6]
        assert sim.run() == 1  # the pending event is untouched

    def test_int_until_leaves_a_float_clock(self):
        for pending in (True, False):
            sim = Simulator()
            if pending:
                sim.schedule(10.0, lambda: None)
            sim.run(until=6)
            assert sim.now == 6.0
            assert type(sim.now) is float

    def test_max_events_limits_this_call(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run(max_events=2)
        assert fired == [1.0, 2.0]
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_stop_simulation_exits_cleanly(self):
        sim = Simulator()
        fired = []

        def bail():
            fired.append(sim.now)
            raise StopSimulation

        sim.schedule(1.0, bail)
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]
        assert len(sim.queue) == 1  # the 2.0 event is still pending

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0):
            sim.schedule(t, lambda: None)
        sim.run()
        assert sim.events_fired == 2

    def test_run_returns_events_fired_this_call(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        assert sim.run(max_events=2) == 2
        assert sim.run() == 1
        assert sim.run() == 0  # queue drained

    def test_stop_simulation_event_is_counted(self):
        # The event that raises fired: its action ran up to the raise
        # and step() recorded it, so run()'s return and events_fired
        # must both include it.
        sim = Simulator()

        def bail():
            raise StopSimulation

        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, bail)
        sim.schedule(3.0, lambda: None)
        assert sim.run() == 2
        assert sim.events_fired == 2


class TestCancelAndReset:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancelling_a_fired_event_is_a_noop(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(max_events=1)
        sim.cancel(first)
        assert len(sim.queue) == 1 and sim.queue
        assert sim.run() == 1
        assert fired == [1, 2]

    def test_reset_clears_pending_events_and_clock(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(9.0, lambda: None)
        sim.reset()
        assert sim.now == 0.0
        assert len(sim.queue) == 0
        assert sim.events_fired == 0

    def test_step_returns_none_when_idle(self):
        assert Simulator().step() is None


class TestFirePath:
    def test_ties_fire_fifo_without_comparing_events(self):
        class Incomparable(Event):
            __slots__ = ()

            def __lt__(self, other):
                raise AssertionError("the event heap compared two events")

        sim = Simulator()
        fired = []
        for i, t in enumerate([1.0, 2.0, 1.0, 1.0, 2.0, 1.0]):
            sim.queue.push(Incomparable(t, lambda i=i: fired.append(i)))
        assert sim.run() == 6
        assert fired == [0, 2, 3, 5, 1, 4]

    def test_step_and_run_share_the_profiler_hook(self):
        class Profiler:
            def __init__(self):
                self.kinds = []

            def clock(self):
                return 0.0

            def account(self, kind, seconds):
                self.kinds.append(kind)

        for drive in (lambda sim: sim.run(), lambda sim: sim.step()):
            profiler = Profiler()
            sim = Simulator(profiler=profiler)
            sim.schedule(1.0, lambda: None, kind="tick")
            drive(sim)
            assert profiler.kinds == ["tick"]


# One initially scheduled event: (time, what it does, its parameter).
_steps = st.tuples(
    st.integers(0, 6).map(float),
    st.sampled_from(("log", "child", "cancel", "stop")),
    st.integers(0, 11),
)


def _build(script):
    """A simulator loaded with ``script``, its fire log and a stop flag."""
    sim = Simulator()
    log = []
    stopped = [False]
    events = []

    def action(index, what, param):
        def fire():
            log.append((sim.now, index, what))
            if what == "child":
                sim.schedule(param % 3, lambda: log.append((sim.now, index, "kid")))
            elif what == "cancel" and param < len(events):
                sim.cancel(events[param])
            elif what == "stop":
                stopped[0] = True
                raise StopSimulation

        return fire

    for index, (time, what, param) in enumerate(script):
        events.append(sim.schedule_at(time, action(index, what, param)))
    for index in range(0, len(events), 5):
        sim.cancel(events[index])
    return sim, log, stopped


class TestRunMatchesStep:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(_steps, max_size=12),
        st.one_of(st.none(), st.integers(0, 8).map(float)),
    )
    def test_property_fused_run_equals_repeated_step(self, script, until):
        sim, log, stopped = _build(script)
        returned = stops = 0
        while True:
            stopped[0] = False
            returned += sim.run(until=until)
            if not stopped[0]:
                break
            stops += 1
            assert log[-1][2] == "stop"  # run() returned at the stop
        fused = (log, sim.events_fired, sim.now, stops)
        assert returned == sim.events_fired

        sim, log, _ = _build(script)
        horizon = math.inf if until is None else until
        stops = 0
        while True:
            pending = sim.queue.peek()
            if pending is None or pending.time > horizon:
                if until is not None and (pending is not None or until > sim.now):
                    sim.now = until
                break
            try:
                sim.step()
            except StopSimulation:
                stops += 1
        assert fused == (log, sim.events_fired, sim.now, stops)
