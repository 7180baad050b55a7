"""Wake-driven hybrid cycle/event simulation engine.

The MMR is a synchronous machine internally (flit cycles), so the natural
kernel is cycle-driven: components register a ``tick`` that runs once per
flit cycle.  Traffic arrivals and timers are sparse, so they are handled by
an event queue drained at the start of each cycle.

**Event order**: the queue (:mod:`repro.sim.events`) keeps one FIFO lane
per due cycle, and ``_step`` drains the due lanes inline, oldest first,
each in filing order — the ``(time, sequence)`` order of a binary heap,
since appending in filing order *is* sequence order within a cycle.  The
lane stays filed while it drains, so an event filed for the current cycle
from event context is appended to it and fires in the same drain, after
everything filed before it; ``schedule``/``schedule_at`` refuse the past,
so no event can be filed ahead of the lane being drained.  Every action
still runs through ``Event.fire``.

The paper's scheduling hardware keeps its cost proportional to *actual
activity* via status bit vectors (§4.1); the kernel does the same.  It
keeps a registration-ordered **awake list** and steps only that list:

* a ticker gated by an :class:`~repro.core.status_vectors.ActivitySet` is
  *pushed*, not polled: it leaves the list the first cycle its set reads
  empty and costs nothing while asleep; the set's ``on_wake`` hook (fired
  on the empty-to-busy transition) queues it for re-admission;
* a ticker gated by a plain callable stays on the list and is polled
  every cycle; one registered without a gate always runs.

**Dispatch order** is exactly that of polling every ticker every cycle in
registration order: a ticker woken from event context runs this cycle;
woken during the tick phase by an earlier-registered ticker it runs this
cycle, by a later-registered one next cycle (it had already been passed,
so this cycle still counts as idle); a ticker whose set was cleared again
before its turn reads empty there and goes back to sleep without ticking.

**Idle accounting** (``on_skip(first_cycle, count)``): the spans a ticker
receives partition the cycles it did not tick, in order.  A polled
ticker gets one span per idle cycle (or per fast-forward jump); a pushed
ticker gets its whole sleep replayed as one span when it is re-admitted.
Every span is delivered before the ticker's next tick and before
``run()`` / ``step()`` return, so counters read between runs (and every
snapshot) are exact; :meth:`Simulator.catch_up` delivers one ticker's
span early.  Because replay is deferred, an ``on_skip`` hook must be
*span-pure*: a function of the span and of state that cannot change while
its ticker sleeps.

**Fast-forward**: when nothing on the awake list reports activity and no
event is due, ``run`` jumps ``now`` to the next event time (or the end of
the run).  Sleeping tickers are not visited; an always-running ticker
disables the jump.

**Checkpoints**: the awake list, the pending wakes, each ticker's
``asleep_since`` and the wake hooks (a slot class, not a closure) are
ordinary simulator state and pickle with it, so a run resumed from a
snapshot taken with most tickers asleep replays identically.

**End of life**: :meth:`Simulator.close` unhooks the tickers and the
queued events, so a finished component graph holds no cycle through
the kernel and reference counting frees it (DESIGN.md §2c).

The executable specification of the dispatch and idle-accounting rules is
``tests/polling_kernel.py`` — every ticker polled every cycle — which
``tests/test_kernel_contract.py`` and ``tests/test_activity_kernel.py``
compare this kernel against.
"""

from __future__ import annotations

import pickle
from bisect import insort
from heapq import heappop
from operator import attrgetter
from time import perf_counter
from typing import Any, Callable, List, Optional

from .events import Event, EventQueue

#: An activity predicate: () -> bool, True when the ticker has work.
ActivityPredicate = Callable[[], bool]
#: Idle accounting hook: (first_skipped_cycle, count) -> None.
SkipHook = Callable[[int, int], None]

_by_index = attrgetter("index")


def _closed_error(what: str) -> RuntimeError:
    return RuntimeError(f"{what}() on a closed simulator")


class _Ticker:
    """One registered per-cycle callback and its activity wiring.

    Returned by :meth:`Simulator.add_ticker` as an opaque handle.
    """

    __slots__ = (
        "index", "tick", "active", "on_skip", "name", "pushed", "asleep_since",
    )

    def __init__(
        self,
        index: int,
        tick: Callable[[int], None],
        active: Optional[ActivityPredicate],
        on_skip: Optional[SkipHook],
        name: Optional[str],
        pushed: bool,
    ) -> None:
        self.index = index
        self.tick = tick
        self.active = active
        self.on_skip = on_skip
        self.name = name
        #: Gated by an ``ActivitySet`` whose ``on_wake`` the kernel owns:
        #: the ticker may leave the awake list.
        self.pushed = pushed
        #: First cycle of the idle span not yet handed to ``on_skip``;
        #: None while the ticker is on the awake list.
        self.asleep_since: Optional[int] = None


class _Wake:
    """``ActivitySet.on_wake`` hook of one pushed ticker.

    A slot class, not a closure, so it pickles with the component graph.
    """

    __slots__ = ("woken", "ticker")

    def __init__(self, woken: List[_Ticker], ticker: _Ticker) -> None:
        self.woken = woken
        self.ticker = ticker

    def __call__(self) -> None:
        ticker = self.ticker
        if ticker.asleep_since is not None:
            self.woken.append(ticker)


class Simulator:
    """Cycle-driven simulator with an auxiliary event queue.

    Time is measured in integer flit cycles (the paper's "router cycles").
    Conversion to wall-clock time is the responsibility of
    :class:`repro.core.config.RouterConfig`, which knows the link rate and
    flit size.
    """

    #: Set by :meth:`close`: the simulation is over.
    _closed = False

    def __init__(self) -> None:
        self.now = 0
        self.events = EventQueue()
        #: Cycles skipped by fast-forward so far (reporting only).
        self.fast_forwarded_cycles = 0
        self._tickers: List[_Ticker] = []
        #: Tickers being stepped, in registration order.
        self._awake: List[_Ticker] = []
        #: Sleeping tickers whose set went busy, awaiting admission.  The
        #: wake hooks hold this very list: mutate it, never rebind it.
        self._woken: List[_Ticker] = []
        self._stopped = False
        self._in_tick_phase = False
        self._profiler = None

    def add_ticker(
        self,
        tick: Callable[[int], None],
        activity: Any = None,
        on_skip: Optional[SkipHook] = None,
        name: Optional[str] = None,
    ) -> _Ticker:
        """Register a per-cycle callback ``tick(cycle)``; returns its handle.

        Tickers run in registration order every cycle, after same-cycle
        events have been drained.  One registered from ticker context
        joins the end of the current cycle's pass.

        ``activity`` gates the ticker.  An object with ``active()`` and an
        ``on_wake`` slot (an ``ActivitySet``) makes it *pushed*: the kernel
        takes the ``on_wake`` hook — one set drives one ticker, a second
        registration raises ``ValueError`` — and stops stepping the ticker
        while the set is empty.  A zero-argument callable (or an object
        with only ``active()``) is polled every cycle.  While the gate
        reports inactive the ticker is skipped and ``on_skip(first_cycle,
        count)`` — if given — accounts the idle cycles (counters, round
        boundaries) without paying for a full tick; see the module
        docstring for the span contract.

        Omitting ``activity`` marks the ticker always-active; the kernel
        then never skips it and never fast-forwards past it.
        """
        if self._closed:
            raise _closed_error("add_ticker")
        predicate: Optional[ActivityPredicate] = None
        pushed = False
        if activity is None:
            pass
        elif callable(activity):
            predicate = activity
        elif hasattr(activity, "active"):
            predicate = activity.active
            pushed = hasattr(activity, "on_wake")
        else:
            raise TypeError(
                f"activity must be callable or have .active(), got {activity!r}"
            )
        ticker = _Ticker(len(self._tickers), tick, predicate, on_skip, name, pushed)
        if pushed:
            if activity.on_wake is not None:
                raise ValueError(
                    f"{activity!r} already drives a ticker: its wake-ups "
                    "would be stolen from the first one"
                )
            activity.on_wake = _Wake(self._woken, ticker)
        self._tickers.append(ticker)
        self._awake.append(ticker)  # highest index: the list stays sorted
        if self._profiler is not None:
            self._profiler.register(ticker.index, name)
        return ticker

    def set_profiler(self, profiler: Any) -> None:
        """Attach (or detach, with None) a kernel profiler.

        While attached, the profiler receives ``register`` for every
        ticker (existing and future), ``on_cycle``/``on_tick``/``on_skip``
        per dispatch decision, ``on_events`` per drained batch and
        ``on_fast_forward`` per elided span — see
        :class:`repro.obs.kernel.KernelProfiler`.  Profiling brackets each
        tick with wall-clock reads, so timing-sensitive measurements
        should detach it first.
        """
        self._profiler = profiler
        if profiler is not None:
            for index, ticker in enumerate(self._tickers):
                profiler.register(index, ticker.name)

    def schedule(
        self, delay: int, action: Callable[..., None], payload: Any = None
    ) -> Event:
        """Schedule ``action`` to run ``delay`` cycles from now.

        ``delay=0`` is legal from event context (the drain loop fires it in
        the same cycle, before tickers) but **rejected from ticker
        context**: the drain phase has already passed, so a zero-delay
        event scheduled by a ticker would silently slip to the next cycle.
        Rather than fire it late, the kernel raises ``ValueError`` —
        schedule with ``delay=1`` to run at the start of the next cycle.
        """
        if self._closed:
            raise _closed_error("schedule")
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        if delay == 0 and self._in_tick_phase:
            raise ValueError(
                "delay=0 from ticker context would silently slip to the "
                "next cycle; schedule with delay=1 instead"
            )
        return self.events.push(self.now + delay, action, payload)

    def schedule_at(
        self, time: int, action: Callable[..., None], payload: Any = None
    ) -> Event:
        """Schedule ``action`` at absolute cycle ``time`` (>= now).

        ``time == now`` carries the same ticker-context restriction as
        ``schedule(0, ...)`` — see :meth:`schedule`.
        """
        if self._closed:
            raise _closed_error("schedule_at")
        if time < self.now:
            raise ValueError(f"cannot schedule at {time}, now is {self.now}")
        if time == self.now and self._in_tick_phase:
            raise ValueError(
                "scheduling at the current cycle from ticker context would "
                "silently slip to the next cycle; use now+1 instead"
            )
        return self.events.push(time, action, payload)

    def stop(self) -> None:
        """Request that :meth:`run` return after the current cycle."""
        self._stopped = True

    def step(self) -> None:
        """Execute one cycle: due events first, then the awake tickers.

        Only the awake list is visited (see the module docstring for the
        dispatch rule); every deferred idle span is delivered before
        returning.
        """
        if self._closed:
            raise _closed_error("step")
        self._step()
        self._flush()

    def _step(self) -> None:
        profiler = self._profiler
        now = self.now
        fired = 0
        events = self.events
        times = events._times
        lanes = events._lanes
        while times and times[0] <= now:
            # The lane stays filed while it drains: an event filed for
            # ``time`` from event context is appended to it and fires in
            # this pass (list iteration sees appends).
            time = heappop(times)
            for event in lanes[time]:
                if event.queued:
                    event.queued = False
                    events._live -= 1
                    event.fire()
                    fired += 1
            del lanes[time]
        if profiler is not None:
            if fired:
                profiler.on_events(fired)
            profiler.on_cycle()
        self._in_tick_phase = True
        try:
            woken = self._woken
            if woken:
                self._admit(-1)
            awake = self._awake
            position = 0
            # By position, not by iterator: a tick may wake (insert)
            # tickers further down the list, and sleepers are deleted.
            while position < len(awake):
                ticker = awake[position]
                active = ticker.active
                if active is None or active():
                    if profiler is None:
                        ticker.tick(now)
                    else:
                        self._tick_profiled(ticker, now)
                    if woken:
                        self._admit(ticker.index)
                elif ticker.pushed:
                    del awake[position]
                    ticker.asleep_since = now
                    continue
                else:
                    self._skip(ticker, now, 1)
                position += 1
        finally:
            self._in_tick_phase = False
        self.now = now + 1

    def _tick_profiled(self, ticker: _Ticker, now: int) -> None:
        start = perf_counter()
        ticker.tick(now)
        self._profiler.on_tick(ticker.index, perf_counter() - start)

    def _skip(self, ticker: _Ticker, start: int, count: int) -> None:
        """Hand ``ticker`` the idle span ``[start, start + count)``."""
        if ticker.on_skip is not None:
            ticker.on_skip(start, count)
        if self._profiler is not None:
            self._profiler.on_skip(ticker.index, count)

    def _admit(self, after: int) -> None:
        """Move woken tickers registered after index ``after`` onto the
        awake list, replaying each one's sleep as a single idle span.

        Tickers at or before ``after`` were already passed this cycle:
        they stay queued and are admitted next cycle, so this cycle is
        part of their span.
        """
        now = self.now
        woken = self._woken
        queued = woken[:]
        woken.clear()
        for ticker in queued:
            since = ticker.asleep_since
            if since is None:
                continue  # queued twice (set, cleared, set again)
            if ticker.index <= after:
                woken.append(ticker)
                continue
            ticker.asleep_since = None
            if now > since:
                self._skip(ticker, since, now - since)
            insort(self._awake, ticker, key=_by_index)

    def catch_up(self, ticker: _Ticker) -> None:
        """Deliver the idle span a sleeping ticker has accrued up to now.

        For code that is about to change state the ticker's ``on_skip``
        reads (a control plane rebinding a sleeping router's VCs): the
        cycles before ``now`` are accounted against the old state.  The
        ticker stays asleep; a no-op while it is awake.
        """
        since = ticker.asleep_since
        if since is not None and since < self.now:
            ticker.asleep_since = self.now
            self._skip(ticker, since, self.now - since)

    def _flush(self) -> None:
        """Deliver every deferred idle span (``run``/``step`` epilogue)."""
        for ticker in self._tickers:
            if ticker.asleep_since is not None:
                self.catch_up(ticker)

    def _idle(self) -> bool:
        """True when no ticker has work: fast-forward is legal."""
        if self._woken:
            self._admit(-1)
        for ticker in self._awake:
            active = ticker.active
            if active is None or active():
                return False
        return True

    def _fast_forward(self, target: int) -> int:
        """Jump ``now`` to ``target``, accounting the skip; returns cycles.

        Only called when :meth:`_idle`: everything on the awake list reads
        inactive.  Pushed tickers go to sleep here; polled ones (which
        never leave the list) are handed the span at once.
        """
        now = self.now
        skipped = target - now
        polled = []
        for ticker in self._awake:
            if ticker.pushed:
                ticker.asleep_since = now
            else:
                self._skip(ticker, now, skipped)
                polled.append(ticker)
        self._awake = polled
        self.now = target
        self.fast_forwarded_cycles += skipped
        if self._profiler is not None:
            self._profiler.on_fast_forward(skipped)
        return skipped

    def run(self, cycles: int) -> int:
        """Run ``cycles`` cycles (or until :meth:`stop`); returns cycles run.

        Cycles elided by fast-forward count as run: the simulation state at
        return is cycle-for-cycle identical to stepping through them, and
        every deferred idle span has been delivered.
        """
        if self._closed:
            raise _closed_error("run")
        if cycles < 0:
            raise ValueError(f"cannot run a negative number of cycles: {cycles}")
        self._stopped = False
        end = self.now + cycles
        executed = 0
        idle = self._idle
        peek_time = self.events.peek_time
        step = self._step
        while self.now < end and not self._stopped:
            if idle():
                next_time = peek_time()
                target = end if next_time is None else min(int(next_time), end)
                if target > self.now:
                    executed += self._fast_forward(target)
                    continue
            step()
            executed += 1
        self._flush()
        return executed

    def run_until(self, time: int) -> int:
        """Run until ``self.now == time``; returns cycles run."""
        if time < self.now:
            raise ValueError(f"cannot run backwards to {time} from {self.now}")
        return self.run(time - self.now)

    # ----- end of life ------------------------------------------------------

    def close(self) -> None:
        """Unhook everything the kernel holds into the component graph.

        Queued events and tickers are the back-edges that make a
        finished simulation cyclic garbage (a component holds the kernel,
        the kernel holds the component's bound methods), which CPython
        frees only at a full collection.  A wake hook left on a
        component's ``ActivitySet`` reaches only its ticker, whose
        callbacks are cleared here.  After ``close`` the graph is a tree
        again and goes the moment its owner drops it.
        Components stay readable; :meth:`run`, :meth:`schedule` and
        :meth:`add_ticker` raise ``RuntimeError``.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self.events.close()
        for ticker in self._tickers:
            ticker.tick = ticker.active = ticker.on_skip = None
        self._awake.clear()
        self._woken.clear()
        self._profiler = None

    # ----- checkpoint / restore ---------------------------------------------

    def snapshot(self) -> bytes:
        """Serialise the simulator *and everything reachable from it*.

        Tickers, activity predicates and pending events hold references
        into the component graph (routers, sources, networks), so one
        snapshot captures the complete simulation state — event queue
        positions, RNG substreams, buffer contents, scheduler round
        accounting — with shared references preserved.  Resuming the
        restored simulator replays the exact cycle-for-cycle execution
        the original would have produced (``tests/test_ckpt.py`` checks
        this bit for bit).

        Only legal between cycles: snapshotting from inside a ticker
        would capture a half-stepped cycle that cannot be resumed
        faithfully.  Components must be picklable — closures and lambdas
        in handlers or pending events make the snapshot fail (the
        asynchronous probe-protocol demos are the one remaining
        known-unsnapshottable phase).
        """
        if self._in_tick_phase:
            raise RuntimeError(
                "cannot snapshot from ticker context: the cycle is half-"
                "stepped; snapshot between run() calls instead"
            )
        try:
            return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise RuntimeError(
                "simulator state is not snapshottable: a ticker, handler "
                f"or pending event holds a non-picklable object ({exc})"
            ) from exc

    @classmethod
    def restore(cls, blob: bytes) -> "Simulator":
        """Rebuild a simulator (and its component graph) from a snapshot.

        The returned instance is fully detached from the original: it owns
        deep copies of every component and can be run, re-snapshotted or
        discarded independently.  An attached kernel profiler travels with
        the snapshot (it is plain counters), so profiled runs resume
        profiled.
        """
        sim = pickle.loads(blob)
        if not isinstance(sim, cls):
            raise TypeError(f"snapshot does not contain a {cls.__name__}")
        return sim
