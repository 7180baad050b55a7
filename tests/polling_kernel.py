"""Brute-force kernel: the executable spec ``Simulator`` is tested against.

Every cycle, after the due events, every ticker's gate is polled in
registration order: busy (or ungated) means ``tick(now)``, idle means
``on_skip(now, 1)``.  No awake list, no deferral, no fast-forward — the
every-ticker-every-cycle loop the wake-driven kernel must be
indistinguishable from (same ticks, same idle cycles).  Test-side only.

It carries the members a ``Router``, a ``Network``, a traffic source or a
flight recorder reaches for on its simulator, so whole scenarios can be
built on it (``TestKernelIdentity``).  Its events go through
:class:`HeapQueue`, a naive binary heap, not the shipped calendar queue:
event order is part of what the two kernels are compared on.
"""

import itertools
from heapq import heappop, heappush

from repro.sim.events import Event


class HeapQueue:
    """The event order ``EventQueue`` must reproduce: one heap entry per
    filing, ordered by (time, filing number); an entry is live while it
    is its event's latest filing and the event was not cancelled."""

    def __init__(self):
        self.heap = []
        self.filings = itertools.count()
        self.live = {}  # event -> filing number of its live entry
        self.cancelled = set()

    def __len__(self):
        return len(self.live)

    def push(self, time, action, payload=None):
        event = Event(time, action, payload)
        self.refile(event, time)
        return event

    def refile(self, event, time):
        if event in self.live or event in self.cancelled:
            raise ValueError(f"{event!r} is queued or cancelled")
        event.time = time
        self.live[event] = filing = next(self.filings)
        heappush(self.heap, (time, filing, event))

    def cancel(self, event):
        if self.live.pop(event, None) is not None:
            self.cancelled.add(event)

    def peek_time(self):
        heap = self.heap
        while heap and self.live.get(heap[0][2]) != heap[0][1]:
            heappop(heap)
        return heap[0][0] if heap else None

    def pop_due(self, now):
        time = self.peek_time()
        if time is None or time > now:
            return None
        event = heappop(self.heap)[2]
        del self.live[event]
        return event


class PollingKernel:
    #: Never skips a cycle (the flight recorder samples the ratio).
    fast_forwarded_cycles = 0

    def __init__(self):
        self.now = 0
        self.tickers = []  # (tick, gate or None, on_skip or None)
        self.events = HeapQueue()
        self._stopped = False

    def add_ticker(self, tick, activity=None, on_skip=None, name=None):
        gate = activity
        if activity is not None and not callable(activity):
            gate = activity.active
        self.tickers.append((tick, gate, on_skip))
        return len(self.tickers) - 1

    def schedule(self, delay, action, payload=None):
        return self.schedule_at(self.now + delay, action, payload)

    def schedule_at(self, time, action, payload=None):
        return self.events.push(time, action, payload)

    def catch_up(self, ticker):
        """Nothing is ever deferred: every idle cycle was accounted as it
        passed."""

    def set_profiler(self, profiler):
        """Unprofiled: the profile is the shipped kernel's own business."""

    def stop(self):
        self._stopped = True

    def step(self):
        now = self.now
        while (event := self.events.pop_due(now)) is not None:
            event.fire()
        # The live list: a ticker registered by a tick joins this pass.
        for tick, gate, on_skip in self.tickers:
            if gate is None or gate():
                tick(now)
            elif on_skip is not None:
                on_skip(now, 1)
        self.now = now + 1

    def run(self, cycles):
        self._stopped = False
        start = self.now
        end = start + cycles
        while self.now < end and not self._stopped:
            self.step()
        return self.now - start
