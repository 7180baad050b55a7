"""Brute-force kernel: the executable spec ``Simulator`` is tested against.

Every cycle, after the due events, every ticker's gate is polled in
registration order: busy (or ungated) means ``tick(now)``, idle means
``on_skip(now, 1)``.  No awake list, no deferral, no fast-forward — the
every-ticker-every-cycle loop the wake-driven kernel must be
indistinguishable from (same ticks, same idle cycles).  Test-side only.
"""

import heapq


class PollingKernel:
    def __init__(self):
        self.now = 0
        self.tickers = []  # (tick, gate or None, on_skip or None)
        self._events = []  # heap of (time, sequence, action)
        self._sequence = 0
        self._stopped = False

    def add_ticker(self, tick, activity=None, on_skip=None):
        gate = activity
        if activity is not None and not callable(activity):
            gate = activity.active
        self.tickers.append((tick, gate, on_skip))

    def schedule(self, delay, action):
        heapq.heappush(self._events, (self.now + delay, self._sequence, action))
        self._sequence += 1

    def stop(self):
        self._stopped = True

    def step(self):
        now = self.now
        while self._events and self._events[0][0] <= now:
            heapq.heappop(self._events)[2]()
        # The live list: a ticker registered by a tick joins this pass.
        for tick, gate, on_skip in self.tickers:
            if gate is None or gate():
                tick(now)
            elif on_skip is not None:
                on_skip(now, 1)
        self.now = now + 1

    def run(self, cycles):
        self._stopped = False
        end = self.now + cycles
        while self.now < end and not self._stopped:
            self.step()
