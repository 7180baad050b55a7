"""Kernel profiling: where do the simulator's cycles actually go?

The kernel's fast-forward advantage shrinks as load rises — 80% of cycles
are skipped at 10% link load, few when every port is busy — but the
kernel itself cannot say *which ticker* eats the difference.  A
:class:`KernelProfiler` plugs into :meth:`repro.sim.engine.Simulator.set_profiler`
and accounts, per registered ticker, how many cycles it ticked, how many
it skipped, and how much wall time its ticks cost; plus the fast-forward
spans the kernel elided and the events it fired.

Profiling changes dispatch cost (each tick is bracketed by two clock
reads), so the profiler is for diagnosis, not for timing runs — a
disabled recorder detaches it.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class TickerProfile:
    """Dispatch accounting for one registered ticker.

    Once ``run()`` has returned, ``ticks + skipped_cycles`` equals the
    cycles the profiler covered (stepped plus fast-forwarded) for every
    ticker registered before it was attached.  ``skip_spans`` counts
    ``on_skip`` deliveries, not idle periods: a sleeping ticker's idle
    cycles arrive merged into one span per wake (or flush), a polled
    ticker's one per idle cycle or fast-forward jump.
    """

    __slots__ = ("index", "name", "ticks", "skipped_cycles", "skip_spans", "seconds")

    def __init__(self, index: int, name: Optional[str]) -> None:
        self.index = index
        self.name = name if name is not None else f"ticker{index}"
        self.ticks = 0
        self.skipped_cycles = 0
        self.skip_spans = 0
        self.seconds = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "name": self.name,
            "ticks": self.ticks,
            "skipped_cycles": self.skipped_cycles,
            "skip_spans": self.skip_spans,
            "seconds": self.seconds,
        }


class KernelProfiler:
    """Receives the engine's profiling hooks and aggregates them.

    The engine calls :meth:`register` as tickers are added (and for any
    tickers that existed before the profiler was attached), then
    :meth:`on_tick` / :meth:`on_skip` per dispatch decision,
    :meth:`on_fast_forward` per elided span and :meth:`on_events` per
    drained batch.
    """

    def __init__(self) -> None:
        self.tickers: List[TickerProfile] = []
        self.events_fired = 0
        self.fast_forward_spans = 0
        self.fast_forwarded_cycles = 0
        self.stepped_cycles = 0

    # ----- engine hooks -----------------------------------------------------

    def register(self, index: int, name: Optional[str]) -> None:
        """Announce ticker ``index`` (called in registration order)."""
        while len(self.tickers) <= index:
            self.tickers.append(TickerProfile(len(self.tickers), None))
        if name is not None:
            self.tickers[index].name = name

    def on_cycle(self) -> None:
        """One cycle was stepped (not fast-forwarded)."""
        self.stepped_cycles += 1

    def on_tick(self, index: int, seconds: float) -> None:
        """Ticker ``index`` ran, costing ``seconds`` of wall time."""
        profile = self.tickers[index]
        profile.ticks += 1
        profile.seconds += seconds

    def on_skip(self, index: int, count: int) -> None:
        """Ticker ``index`` was handed one idle span of ``count`` cycles
        (stepped or fast-forwarded; possibly long after they passed)."""
        profile = self.tickers[index]
        profile.skipped_cycles += count
        profile.skip_spans += 1

    def on_fast_forward(self, cycles: int) -> None:
        """The kernel jumped ``cycles`` cycles in one span."""
        self.fast_forward_spans += 1
        self.fast_forwarded_cycles += cycles

    def on_events(self, count: int) -> None:
        """``count`` due events fired at the start of a cycle."""
        self.events_fired += count

    # ----- reporting --------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """Cycles covered: stepped plus fast-forwarded."""
        return self.stepped_cycles + self.fast_forwarded_cycles

    @property
    def fast_forward_ratio(self) -> float:
        """Fraction of covered cycles the kernel elided entirely."""
        total = self.total_cycles
        return self.fast_forwarded_cycles / total if total else 0.0

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe profile: kernel totals plus per-ticker accounting."""
        return {
            "stepped_cycles": self.stepped_cycles,
            "fast_forwarded_cycles": self.fast_forwarded_cycles,
            "fast_forward_spans": self.fast_forward_spans,
            "fast_forward_ratio": self.fast_forward_ratio,
            "events_fired": self.events_fired,
            "tickers": [profile.to_dict() for profile in self.tickers],
        }
