"""Streaming statistics used to gather simulation metrics.

The simulator runs for hundreds of thousands of cycles, so metrics are
accumulated incrementally (Welford's algorithm for mean/variance, fixed-bin
histograms for distributions) rather than by storing raw samples.

Per-flit samples are not folded one at a time: the hot path appends them
to a short pending list, and :meth:`RunningStats.extend` folds the list
in arrival order with exactly :meth:`RunningStats.add`'s float operations
per sample, so every statistic is bit-identical to folding each sample as
it arrived.  A list, not an ``array``, keeps each sample's type (an
integer delay stays an ``int`` in ``minimum``/``maximum``, as it did).
Pending samples are folded on every read, before pickling and at bounded
points (the owning router's round boundaries), so they never outgrow one
round and a checkpoint holds none.
"""

from __future__ import annotations

import math
from operator import sub
from typing import Dict, Iterable, List, Optional, Tuple


class RunningStats:
    """Incremental mean / variance / min / max over a stream of samples.

    Uses Welford's online algorithm, which is numerically stable for the
    long, low-variance streams produced by steady-state simulation.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the statistics."""
        self.count += 1
        self._total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many samples into the statistics, in order.

        The float operations per sample are exactly :meth:`add`'s, so the
        result is bit-identical to adding the samples one at a time.
        """
        count = self.count
        total = self._total
        mean = self._mean
        m2 = self._m2
        low = self._min
        high = self._max
        for value in values:
            count += 1
            total += value
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < low:
                low = value
            if value > high:
                high = value
        self.count = count
        self._total = total
        self._mean = mean
        self._m2 = m2
        self._min = low
        self._max = high

    def merge(self, other: "RunningStats") -> None:
        """Fold another accumulator into this one (parallel merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            self._total = other._total
            return
        combined = self.count + other.count
        delta = other._mean - self._mean
        self._mean += delta * other.count / combined
        self._m2 += other._m2 + delta * delta * self.count * other.count / combined
        self.count = combined
        self._total += other._total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return self._total

    @property
    def variance(self) -> float:
        """Population variance (0.0 for fewer than two samples)."""
        return self._m2 / self.count if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest sample seen (+inf when empty)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest sample seen (-inf when empty)."""
        return self._max

    def __repr__(self) -> str:
        return (
            f"RunningStats(count={self.count}, mean={self.mean:.4g}, "
            f"stdev={self.stdev:.4g}, min={self._min:.4g}, max={self._max:.4g})"
        )


class Histogram:
    """Fixed-width-bin histogram with overflow/underflow tracking.

    Bin ``i`` covers ``[low + i*width, low + (i+1)*width)``.  Values outside
    ``[low, high)`` are counted in dedicated under/overflow buckets so no
    sample is silently dropped.
    """

    def __init__(self, low: float, high: float, bins: int) -> None:
        if high <= low:
            raise ValueError(f"histogram range empty: [{low}, {high})")
        if bins <= 0:
            raise ValueError(f"histogram needs at least one bin, got {bins}")
        self.low = low
        self.high = high
        self.bins = bins
        self.width = (high - low) / bins
        self.counts = [0] * bins
        self.underflow = 0
        self.overflow = 0

    def add(self, value: float, weight: int = 1) -> None:
        """Count ``value`` with multiplicity ``weight``."""
        if value < self.low:
            self.underflow += weight
        elif value >= self.high:
            self.overflow += weight
        else:
            index = int((value - self.low) / self.width)
            # Guard against floating point landing exactly on the top edge.
            if index >= self.bins:
                index = self.bins - 1
            self.counts[index] += weight

    @property
    def total(self) -> int:
        """Total number of counted samples, including under/overflow."""
        return sum(self.counts) + self.underflow + self.overflow

    def quantile(self, q: float) -> float:
        """Approximate the ``q``-quantile (0 <= q <= 1) from bin counts.

        Uses linear interpolation within the bin containing the quantile.
        Under/overflow samples clamp to the range edges.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.total
        if total == 0:
            return 0.0
        target = q * total
        cumulative = self.underflow
        if target <= cumulative:
            return self.low
        for i, count in enumerate(self.counts):
            if cumulative + count >= target and count > 0:
                fraction = (target - cumulative) / count
                return self.low + (i + fraction) * self.width
            cumulative += count
        return self.high

    def nonzero_bins(self) -> List[Tuple[float, int]]:
        """(bin lower edge, count) for every non-empty bin."""
        return [
            (self.low + i * self.width, count)
            for i, count in enumerate(self.counts)
            if count
        ]


class TimeWeightedStats:
    """Time-weighted average of a piecewise-constant signal.

    Call :meth:`record` whenever the signal changes; the accumulator weights
    each value by how long it was held.
    """

    def __init__(self, initial_time: float = 0.0, initial_value: float = 0.0) -> None:
        self._last_time = initial_time
        self._value = initial_value
        self._weighted_sum = 0.0
        self._duration = 0.0

    def record(self, time: float, value: float) -> None:
        """The signal takes ``value`` from ``time`` onward."""
        if time < self._last_time:
            raise ValueError(
                f"time went backwards: {time} < {self._last_time}"
            )
        span = time - self._last_time
        self._weighted_sum += self._value * span
        self._duration += span
        self._last_time = time
        self._value = value

    def finish(self, time: float) -> None:
        """Close the observation window at ``time``."""
        self.record(time, self._value)

    @property
    def mean(self) -> float:
        """Time-weighted mean over the observed window."""
        return self._weighted_sum / self._duration if self._duration else 0.0


class ConnectionStats:
    """Per-connection delay and jitter accumulators.

    Delay is :meth:`Flit.switch_delay <repro.core.flit.Flit.switch_delay>`:
    from the cycle the source created the flit (``created``) to the cycle
    it leaves the switch, so time queued behind predecessors or held back
    by flow control counts.  Jitter follows the paper's definition: the
    difference in the delays of successive flits on a connection, folded in
    as absolute values.  A router keeps an entry only for connections
    whose flits leave the network through it (``Router._deliver``); the
    end-to-end series live at ``NetworkInterface.end_to_end``.

    Delays wait in :attr:`pending` until they are folded (module
    docstring): on any read of ``delay``, ``jitter`` or ``flits``, before
    pickling, at the owning router's round boundaries, and by
    :meth:`record_flit` once :attr:`FOLD_EVERY` samples wait.
    """

    #: Most samples :meth:`record_flit` leaves unfolded, for callers with
    #: no round boundary to fold at (the network interfaces, churn).
    FOLD_EVERY = 64

    __slots__ = ("_delay", "_jitter", "_last_delay", "pending")

    def __init__(self) -> None:
        self._delay = RunningStats()
        self._jitter = RunningStats()
        self._last_delay: Optional[float] = None
        #: Delays recorded since the last fold, in arrival order.
        self.pending: List[float] = []

    def record_flit(self, delay_cycles: float) -> None:
        """Record one delivered flit with the given delay."""
        pending = self.pending
        pending.append(delay_cycles)
        if len(pending) >= self.FOLD_EVERY:
            self.fold()

    def fold(self) -> None:
        """Fold the pending delays into ``delay`` and ``jitter``."""
        pending = self.pending
        if not pending:
            return
        last = self._last_delay
        delays = pending if last is None else [last, *pending]
        self._jitter.extend(map(abs, map(sub, delays[1:], delays)))
        self._delay.extend(pending)
        self._last_delay = pending[-1]
        pending.clear()

    @property
    def delay(self) -> RunningStats:
        """Delay per flit, in cycles."""
        self.fold()
        return self._delay

    @property
    def jitter(self) -> RunningStats:
        """Absolute delay difference of successive flits, in cycles."""
        self.fold()
        return self._jitter

    @property
    def flits(self) -> int:
        """Flits recorded."""
        self.fold()
        return self._delay.count

    def __getstate__(self) -> tuple:
        # Folded first, so the pending list is always empty: not stored.
        self.fold()
        return self._delay, self._jitter, self._last_delay

    def __setstate__(self, state: tuple) -> None:
        self._delay, self._jitter, self._last_delay = state
        self.pending = []


class StatsRegistry:
    """A namespace of named accumulators, used as a router-wide scoreboard.

    A hot path may append to a *deferred* series' sample list instead of
    calling :meth:`observe` per sample; every read folds the list in.
    """

    def __init__(self) -> None:
        self.scalars: Dict[str, float] = {}
        self.series: Dict[str, RunningStats] = {}
        #: name -> (samples not folded yet, histogram the fold also feeds).
        self._deferred: Dict[str, Tuple[list, Optional[Histogram]]] = {}

    def counter(self, name: str, amount: float = 1.0) -> None:
        """Increment scalar counter ``name`` by ``amount``."""
        self.scalars[name] = self.scalars.get(name, 0.0) + amount

    def defer(self, name: str, histogram: Optional[Histogram] = None) -> list:
        """The sample list of series ``name``, for a hot path to append to.

        Reads of the registry (:meth:`get_series`, :meth:`snapshot`,
        :meth:`observe`), :meth:`fold` and pickling fold the samples into
        the series in arrival order — and into ``histogram`` when given.
        """
        samples: list = []
        self._deferred[name] = (samples, histogram)
        return samples

    def fold(self) -> None:
        """Fold every deferred sample into its series (and histogram)."""
        for name, (samples, histogram) in self._deferred.items():
            if samples:
                self._series(name).extend(samples)
                if histogram is not None:
                    for value in samples:
                        histogram.add(value)
                samples.clear()

    def _series(self, name: str) -> RunningStats:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = RunningStats()
        return series

    def observe(self, name: str, value: float) -> None:
        """Fold a sample into the running series ``name``."""
        self.fold()
        self._series(name).add(value)

    def get_counter(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        return self.scalars.get(name, 0.0)

    def get_series(self, name: str) -> RunningStats:
        """Running stats for ``name``, registering it on first access.

        The returned accumulator is the live registered instance —
        samples observed afterwards are visible through it, and samples
        added through it are visible to every other reader.  (An unknown
        name used to return a detached empty accumulator that silently
        swallowed any updates.)  Deferred samples are folded first; ones
        appended later reach the handle at the next read of the registry.
        """
        self.fold()
        return self._series(name)

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of counters and series means, for reporting."""
        self.fold()
        out = dict(self.scalars)
        for name, stats in self.series.items():
            out[f"{name}.mean"] = stats.mean
            out[f"{name}.count"] = stats.count
        return out

    def __getstate__(self) -> dict:
        self.fold()
        return self.__dict__
