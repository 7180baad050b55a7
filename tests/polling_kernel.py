"""Brute-force kernel: the executable spec ``Simulator`` is tested against.

Every cycle, after the due events, every ticker's gate is polled in
registration order: busy (or ungated) means ``tick(now)``, idle means
``on_skip(now, 1)``.  No awake list, no deferral, no fast-forward — the
every-ticker-every-cycle loop the wake-driven kernel must be
indistinguishable from (same ticks, same idle cycles).  Test-side only.

It carries the members a ``Router``, a ``Network``, a traffic source or a
flight recorder reaches for on its simulator, so whole scenarios can be
built on it (``TestKernelIdentity``); the event queue is the shipped
``EventQueue`` — ticker dispatch is what this file specifies, not event
order.
"""

from repro.sim.events import EventQueue


class PollingKernel:
    #: Never skips a cycle (the flight recorder samples the ratio).
    fast_forwarded_cycles = 0

    def __init__(self):
        self.now = 0
        self.tickers = []  # (tick, gate or None, on_skip or None)
        self.events = EventQueue()
        self._stopped = False

    def add_ticker(self, tick, activity=None, on_skip=None, name=None):
        gate = activity
        if activity is not None and not callable(activity):
            gate = activity.active
        self.tickers.append((tick, gate, on_skip))
        return len(self.tickers) - 1

    def schedule(self, delay, action, payload=None, priority=0):
        return self.schedule_at(self.now + delay, action, payload, priority)

    def schedule_at(self, time, action, payload=None, priority=0):
        return self.events.push(time, action, payload, priority)

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
