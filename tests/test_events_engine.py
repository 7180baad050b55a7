"""Tests for the event queue and the hybrid simulation engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue

from tests.polling_kernel import PollingKernel


class TestEventQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        order = []
        q.push(5, lambda: order.append(5))
        q.push(1, lambda: order.append(1))
        q.push(3, lambda: order.append(3))
        while q:
            q.pop().fire()
        assert order == [1, 3, 5]

    def test_fifo_among_equal_times(self):
        q = EventQueue()
        order = []
        for i in range(5):
            q.push(7, lambda i=i: order.append(i))
        while q:
            q.pop().fire()
        assert order == [0, 1, 2, 3, 4]

    def test_cancellation(self):
        q = EventQueue()
        fired = []
        event = q.push(1, lambda: fired.append(1))
        q.cancel(event)
        assert len(q) == 0
        assert not q
        assert q.peek_time() is None

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        e = q.push(1, lambda: None)
        q.push(2, lambda: None)
        q.cancel(e)
        q.cancel(e)
        assert len(q) == 1

    def test_cancelling_a_fired_event_keeps_the_count(self):
        q = EventQueue()
        e = q.push(1, lambda: None)
        q.push(2, lambda: None)
        q.pop().fire()
        q.cancel(e)
        assert len(q) == 1
        assert q
        assert q.peek_time() == 2

    def test_refile_reuses_the_event(self):
        q = EventQueue()
        e = q.push(1, lambda: None)
        q.pop().fire()
        q.refile(e, 4)
        assert (len(q), q.peek_time()) == (1, 4)
        assert q.pop() is e

    def test_refile_refuses_a_queued_or_cancelled_event(self):
        q = EventQueue()
        e = q.push(1, lambda: None)
        with pytest.raises(ValueError):
            q.refile(e, 2)
        q.cancel(e)
        with pytest.raises(ValueError):
            q.refile(e, 2)
        assert len(q) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        e = q.push(1, lambda: None)
        q.push(9, lambda: None)
        q.cancel(e)
        assert q.peek_time() == 9

    def test_payload_passed(self):
        q = EventQueue()
        got = []
        q.push(1, got.append, payload="hello")
        q.pop().fire()
        assert got == ["hello"]

    def test_event_repr(self):
        e = Event(3, lambda: None)
        assert "t=3" in repr(e)
        e.cancel()
        assert "cancelled" in repr(e)


class TestSimulator:
    def test_tickers_run_every_cycle(self):
        sim = Simulator()
        seen = []
        sim.add_ticker(seen.append)
        sim.run(5)
        assert seen == [0, 1, 2, 3, 4]
        assert sim.now == 5

    def test_tickers_run_in_registration_order(self):
        sim = Simulator()
        order = []
        sim.add_ticker(lambda c: order.append("a"))
        sim.add_ticker(lambda c: order.append("b"))
        sim.run(1)
        assert order == ["a", "b"]

    def test_events_fire_before_tickers(self):
        sim = Simulator()
        order = []
        sim.add_ticker(lambda c: order.append(("tick", c)))
        sim.schedule(2, lambda: order.append(("event", 2)))
        sim.run(3)
        assert ("event", 2) in order
        assert order.index(("event", 2)) < order.index(("tick", 2))

    def test_schedule_at(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(4, lambda: fired.append(sim.now))
        sim.run(6)
        assert fired == [4]

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.run(5)
        with pytest.raises(ValueError):
            sim.schedule_at(3, lambda: None)

    def test_stop_ends_run_early(self):
        sim = Simulator()
        sim.schedule(2, sim.stop)
        executed = sim.run(100)
        assert executed == 3  # cycles 0, 1, 2 complete
        assert sim.now == 3

    def test_run_until(self):
        sim = Simulator()
        sim.run_until(7)
        assert sim.now == 7
        with pytest.raises(ValueError):
            sim.run_until(3)

    def test_run_negative_rejected(self):
        with pytest.raises(ValueError):
            Simulator().run(-1)

    def test_event_scheduled_during_cycle_fires_same_cycle_if_due(self):
        # An event scheduled with delay 0 from within an event fires in
        # the same drain loop.
        sim = Simulator()
        order = []
        def outer():
            order.append("outer")
            sim.schedule(0, lambda: order.append("inner"))
        sim.schedule(1, outer)
        sim.run(2)
        assert order == ["outer", "inner"]

    def test_cascading_events_across_cycles(self):
        sim = Simulator()
        hits = []
        def ping():
            hits.append(sim.now)
            if sim.now < 4:
                sim.schedule(2, ping)
        sim.schedule(0, ping)
        sim.run(10)
        assert hits == [0, 2, 4]


class _World:
    """One kernel and the events filed on it, logging what fires when."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.fired = []  # (cycle, label), in firing order
        self.events = []

    def action(self, label, nested):
        def fire():
            self.fired.append((self.kernel.now, label))
            if nested is not None:  # a same-cycle push from event context
                self.events.append(
                    self.kernel.events.push(self.kernel.now, self.action(nested, None))
                )

        return fire

    def apply(self, op):
        kind, number, delay = op
        queue = self.kernel.events
        now = self.kernel.now
        if kind == "push":
            nested = -number if number % 3 == 0 else None
            self.events.append(queue.push(now + delay, self.action(number, nested)))
        elif kind == "cancel" and self.events:
            queue.cancel(self.events[number % len(self.events)])
        elif kind == "refile" and self.events:
            try:
                queue.refile(self.events[number % len(self.events)], now + delay)
            except ValueError:
                return "refused"
        elif kind == "step":
            self.kernel.step()
        elif kind == "run":
            self.kernel.run(delay)
        return None


_OPS = st.tuples(
    st.sampled_from(["push", "push", "cancel", "refile", "step", "run"]),
    st.integers(0, 60),
    st.integers(0, 4),
)


class TestCalendarQueueMatchesHeapSpec:
    """``EventQueue`` drained by ``Simulator`` against ``HeapQueue`` drained
    by the polling kernel: pushes, cancels, re-files and same-cycle pushes
    from inside a firing event; after every operation the firing order,
    ``len()`` and ``peek_time()`` agree."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_OPS, max_size=60))
    def test_same_order_length_and_head(self, ops):
        calendar, spec = _World(Simulator()), _World(PollingKernel())
        for op in ops:
            assert calendar.apply(op) == spec.apply(op)
            assert calendar.fired == spec.fired
            assert len(calendar.kernel.events) == len(spec.kernel.events)
            assert calendar.kernel.events.peek_time() == spec.kernel.events.peek_time()
            assert calendar.kernel.now == spec.kernel.now
