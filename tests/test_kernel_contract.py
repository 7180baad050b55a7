"""The kernel's dispatch and idle-accounting contract.

``Simulator`` steps only its awake list and defers idle accounting; what
it must never change is *what happens*: which ticker ticks on which
cycle, and which cycles each ticker is told it sat out.  Both are checked
against :class:`tests.polling_kernel.PollingKernel`, the brute-force
every-ticker-every-cycle loop, rather than against span shapes (how the
idle cycles are cut into ``on_skip`` calls is the kernel's business).
"""

from collections import defaultdict
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.status_vectors import ActivitySet
from repro.sim.engine import Simulator

from tests.polling_kernel import PollingKernel

PUSHED, POLLED, UNGATED = "pushed", "polled", "ungated"
BITS = 2


class Flag:
    """A callable gate with ``ActivitySet``'s set/clear surface: the
    kernel can only poll it."""

    def __init__(self):
        self.bits = 0

    def set(self, index):
        self.bits |= 1 << index

    def clear(self, index):
        self.bits &= ~(1 << index)

    def __call__(self):
        return self.bits != 0


class Rig:
    """One scripted scenario wired onto a kernel, recording what it saw.

    ``ops`` are ``(cycle, actor, target, bit, busy)``: at ``cycle``, from
    event context (``actor`` < 0) or from inside ticker ``actor``'s tick,
    set or clear one bit of gated ticker ``target``'s gate.
    """

    def __init__(self, kernel, tickers, ops=(), stops=()):
        self.kernel = kernel
        self.trace = []  # (ticker, cycle), in dispatch order
        self.spans = []  # per ticker: [(start, count), ...] as delivered
        self.gates = []
        self.born = []  # cycle each ticker was registered
        self.in_tick = defaultdict(list)  # (cycle, ticker) -> actions
        for kind, busy in tickers:
            self.add(kind, busy)
        gated = [gate for gate in self.gates if gate is not None]
        for cycle, actor, target, bit, busy in ops:
            if not gated:
                break
            gate = gated[target % len(gated)]
            action = partial(gate.set if busy else gate.clear, bit)
            if actor < 0:
                kernel.schedule(cycle, action)
            else:
                self.in_tick[cycle, actor % len(self.gates)].append(action)
        for cycle in stops:
            kernel.schedule(cycle, kernel.stop)

    def add(self, kind, busy=False):
        index = len(self.gates)
        gate = {PUSHED: ActivitySet(BITS), POLLED: Flag(), UNGATED: None}[kind]
        if busy and gate is not None:
            gate.set(0)
        self.gates.append(gate)
        self.spans.append([])
        self.born.append(self.kernel.now)
        self.kernel.add_ticker(
            partial(self.tick, index),
            activity=gate,
            on_skip=lambda start, count: self.spans[index].append((start, count)),
        )
        return index

    def tick(self, index, cycle):
        self.trace.append((index, cycle))
        for action in self.in_tick.get((cycle, index), ()):
            action()

    def check_accounted(self):
        """Every ticker's spans are in order, disjoint, and together with
        its ticks cover exactly the cycles since it was registered —
        nothing is still pending."""
        for index, spans in enumerate(self.spans):
            idle = []
            for start, count in spans:
                assert count > 0
                assert not idle or start > idle[-1], (index, spans)
                idle.extend(range(start, start + count))
            ticked = [cycle for ticker, cycle in self.trace if ticker == index]
            assert not set(idle) & set(ticked), (index, spans)
            assert sorted(idle + ticked) == list(
                range(self.born[index], self.kernel.now)
            ), (index, spans)

    def idle_cycles(self):
        return [
            [c for start, count in spans for c in range(start, start + count)]
            for spans in self.spans
        ]


def both(tickers, ops=(), stops=()):
    """The same scenario on the kernel under test and on the oracle."""
    return (
        Rig(Simulator(), tickers, ops, stops),
        Rig(PollingKernel(), tickers, ops, stops),
    )


def assert_same(rig, oracle):
    assert rig.kernel.now == oracle.kernel.now
    assert rig.trace == oracle.trace
    assert rig.idle_cycles() == oracle.idle_cycles()
    rig.check_accounted()


HORIZON = 40

tickers_strategy = st.lists(
    st.tuples(st.sampled_from((PUSHED, PUSHED, POLLED, UNGATED)), st.booleans()),
    min_size=3,
    max_size=6,
)
ops_strategy = st.lists(
    st.tuples(
        st.integers(0, HORIZON),  # cycle
        st.integers(-3, 5),  # actor: negative = event context
        st.integers(0, 5),  # target
        st.integers(0, BITS - 1),  # bit
        st.booleans(),  # busy
    ),
    max_size=60,
)
# ("run", n) or ("step", n single steps), until past the horizon.
drive_strategy = st.lists(
    st.tuples(st.sampled_from(("run", "step")), st.integers(0, 15)),
    min_size=1,
    max_size=8,
)


class TestAgainstPollingOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        tickers=tickers_strategy,
        ops=ops_strategy,
        stops=st.lists(st.integers(0, HORIZON), max_size=2),
        drive=drive_strategy,
    )
    def test_same_ticks_same_idle_cycles(
        self, tickers, ops, stops, drive
    ):
        rig, oracle = both(tickers, ops, stops)
        for how, count in drive:
            for side in (rig, oracle):
                if how == "run":
                    side.kernel.run(count)
                else:
                    for _ in range(count):
                        side.kernel.step()
            assert_same(rig, oracle)
        for side in (rig, oracle):
            side.kernel.run(HORIZON + 5)
        assert_same(rig, oracle)

    def test_sleeping_tickers_are_not_visited(self):
        # The point of the exercise: an idle pushed ticker costs neither a
        # poll nor a per-cycle on_skip while another ticker keeps the
        # kernel stepping.
        class CountingSet(ActivitySet):
            __slots__ = ("polls",)

            def active(self):
                self.polls += 1
                return super().active()

        sim = Simulator()
        gate = CountingSet(1)
        gate.polls = 0
        spans = []
        sim.add_ticker(
            lambda cycle: None,
            activity=gate,
            on_skip=lambda start, count: spans.append((start, count)),
        )
        sim.add_ticker(lambda cycle: None)
        sim.run(50)
        assert gate.polls <= 2  # read empty at cycle 0, then asleep
        assert spans == [(0, 50)]


class TestSameCycleWakeRule:
    def test_woken_by_an_earlier_ticker_runs_this_cycle(self):
        ops = [(0, -1, 0, 0, True), (7, 0, 1, 0, True)]  # ticker 0 wakes 1 at 7
        rig, oracle = both([(PUSHED, False), (PUSHED, False)], ops)
        for side in (rig, oracle):
            side.kernel.run(10)
        assert_same(rig, oracle)
        assert (1, 7) in rig.trace
        assert rig.spans[1] == [(0, 7)]

    def test_woken_by_a_later_ticker_runs_next_cycle(self):
        ops = [(0, -1, 1, 0, True), (7, 2, 0, 0, True)]  # ticker 2 wakes 0 at 7
        rig, oracle = both([(PUSHED, False), (UNGATED, False), (PUSHED, False)], ops)
        for side in (rig, oracle):
            side.kernel.run(10)
        assert_same(rig, oracle)
        assert (0, 7) not in rig.trace and (0, 8) in rig.trace
        assert rig.spans[0] == [(0, 8)]  # cycle 7 was still idle

    def test_woken_by_an_event_runs_this_cycle(self):
        rig, oracle = both([(PUSHED, False)], [(7, -1, 0, 0, True)])
        for side in (rig, oracle):
            side.kernel.run(10)
        assert_same(rig, oracle)
        assert rig.trace == [(0, 7), (0, 8), (0, 9)]

    def test_wake_then_clear_before_its_turn_ticks_nothing(self):
        # Two events of one cycle: set, then clear.  The wake hook fired,
        # but by the tick phase the set reads empty again.
        ops = [(7, -1, 0, 0, True), (7, -1, 0, 0, False), (9, -1, 0, 1, True)]
        rig, oracle = both([(PUSHED, False), (UNGATED, False)], ops)
        for side in (rig, oracle):
            side.kernel.run(12)
        assert_same(rig, oracle)
        assert [c for t, c in rig.trace if t == 0] == [9, 10, 11]

    def test_woken_between_runs(self):
        rig, oracle = both([(PUSHED, False)])
        for side in (rig, oracle):
            side.kernel.run(5)
            side.gates[0].set(1)  # from outside any run
            side.kernel.run(3)
        assert_same(rig, oracle)
        assert rig.trace == [(0, 5), (0, 6), (0, 7)]


class TestTickerAddedMidRun:
    @pytest.mark.parametrize("kind", (PUSHED, POLLED, UNGATED))
    def test_added_between_runs_is_accounted_from_then(self, kind):
        rig, oracle = both([(PUSHED, True)])
        for side in (rig, oracle):
            side.kernel.run(6)
            late = side.add(kind)
            side.kernel.run(6)
            if kind != UNGATED:
                side.gates[late].set(0)
            side.kernel.run(3)
        assert_same(rig, oracle)
        assert rig.born[1] == 6
        assert all(start >= 6 for start, _count in rig.spans[1])

    def test_added_by_an_event_runs_that_cycle(self):
        rig, oracle = both([(UNGATED, False)])
        for side in (rig, oracle):
            side.kernel.schedule(4, partial(side.add, PUSHED, True))
            side.kernel.run(8)
        assert_same(rig, oracle)
        assert [c for t, c in rig.trace if t == 1] == [4, 5, 6, 7]

    def test_added_by_a_tick_joins_the_end_of_that_pass(self):
        rig, oracle = both([(UNGATED, False)])
        for side in (rig, oracle):
            side.in_tick[4, 0].append(partial(side.add, PUSHED, True))
            side.kernel.run(8)
        assert_same(rig, oracle)
        assert [c for t, c in rig.trace if t == 1] == [4, 5, 6, 7]


class TestStopAndFastForward:
    def test_stop_inside_a_fast_forwardable_region(self):
        rig, oracle = both([(PUSHED, False), (POLLED, False)], stops=[7])
        for side in (rig, oracle):
            side.kernel.run(100)
        assert_same(rig, oracle)
        assert rig.kernel.now == 8  # 7 cycles jumped, the stop cycle stepped
        assert rig.kernel.fast_forwarded_cycles == 7
        for side in (rig, oracle):
            side.kernel.run(20)
        assert_same(rig, oracle)

    def test_idle_cycles_across_fast_forward(self):
        # Was test_on_skip_receives_bulk_spans: an idle ticker, one event
        # that wakes nothing.  The span *shape* is free; the cycles are not.
        rig, oracle = both([(PUSHED, False)])
        for side in (rig, oracle):
            side.kernel.schedule(300, lambda: None)
            side.kernel.run(1000)
        assert_same(rig, oracle)
        assert rig.kernel.fast_forwarded_cycles == 999
        assert rig.idle_cycles()[0] == list(range(1000))

    def test_idle_accounting_beside_a_busy_ticker(self):
        # Was test_per_cycle_skip_when_another_ticker_busy.
        rig, oracle = both([(PUSHED, False), (PUSHED, True)])
        for side in (rig, oracle):
            side.kernel.run(4)
        assert_same(rig, oracle)
        assert [c for t, c in rig.trace if t == 1] == [0, 1, 2, 3]
        assert rig.idle_cycles()[0] == [0, 1, 2, 3]

    def test_polled_ticker_gets_its_spans_at_once(self):
        # A callable gate cannot push, so its idle cycles are never
        # deferred: per cycle while stepping, one span per jump.
        rig, oracle = both([(POLLED, False), (PUSHED, True)], [(3, 1, 1, 0, False)])
        for side in (rig, oracle):
            side.kernel.run(10)
        assert_same(rig, oracle)
        assert rig.spans[0] == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 6)]


class TestOneSetOneTicker:
    def test_second_registration_of_a_set_is_refused(self):
        sim = Simulator()
        gate = ActivitySet(1)
        sim.add_ticker(lambda cycle: None, activity=gate)
        with pytest.raises(ValueError, match="already drives a ticker"):
            sim.add_ticker(lambda cycle: None, activity=gate)
        assert len(sim._tickers) == 1


class TestCatchUp:
    def test_catch_up_splits_the_span_and_keeps_the_ticker_asleep(self):
        sim = Simulator()
        gate = ActivitySet(1)
        spans, ticks = [], []
        handle = sim.add_ticker(
            ticks.append,
            activity=gate,
            on_skip=lambda start, count: spans.append((start, count)),
        )
        sim.add_ticker(lambda cycle: None)  # keeps the kernel stepping
        sim.schedule(5, lambda: sim.catch_up(handle))
        sim.schedule(5, lambda: sim.catch_up(handle))  # nothing left: no-op
        sim.schedule(9, lambda: gate.set(0))
        sim.run(12)
        assert spans == [(0, 5), (5, 4)]
        assert ticks == [9, 10, 11]

    def test_catch_up_of_an_awake_ticker_is_a_no_op(self):
        sim = Simulator()
        gate = ActivitySet(1)
        gate.set(0)
        spans = []
        handle = sim.add_ticker(
            lambda cycle: None,
            activity=gate,
            on_skip=lambda start, count: spans.append((start, count)),
        )
        sim.run(3)
        sim.catch_up(handle)
        assert spans == []
