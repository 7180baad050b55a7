"""Streaming statistics used to gather simulation metrics.

The simulator runs for hundreds of thousands of cycles, so metrics are
accumulated incrementally (Welford's algorithm for mean/variance, fixed-bin
histograms for distributions) rather than by storing raw samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        """Fold many samples into the statistics."""
        for value in values:
            self.add(value)

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


@dataclass
class ConnectionStats:
    """Per-connection delay and jitter accumulators.

    Delay is the time between a flit becoming ready at the switch and the
    flit leaving the switch.  Jitter follows the paper's definition: the
    difference in the delays of successive flits on a connection, folded in
    as absolute values.  A router keeps an entry only for connections
    whose flits leave the network through it (``Router._deliver``); the
    end-to-end series live at ``NetworkInterface.end_to_end``.
    """

    delay: RunningStats = field(default_factory=RunningStats)
    jitter: RunningStats = field(default_factory=RunningStats)
    flits: int = 0
    _last_delay: Optional[float] = None

    def record_flit(self, delay_cycles: float) -> None:
        """Record one delivered flit with the given switch delay."""
        self.flits += 1
        self.delay.add(delay_cycles)
        if self._last_delay is not None:
            self.jitter.add(abs(delay_cycles - self._last_delay))
        self._last_delay = delay_cycles


class StatsRegistry:
    """A namespace of named accumulators, used as a router-wide scoreboard."""

    def __init__(self) -> None:
        self.scalars: Dict[str, float] = {}
        self.series: Dict[str, RunningStats] = {}

    def counter(self, name: str, amount: float = 1.0) -> None:
        """Increment scalar counter ``name`` by ``amount``."""
        self.scalars[name] = self.scalars.get(name, 0.0) + amount

    def observe(self, name: str, value: float) -> None:
        """Fold a sample into the running series ``name``."""
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = RunningStats()
        series.add(value)

    def get_counter(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        return self.scalars.get(name, 0.0)

    def get_series(self, name: str) -> RunningStats:
        """Running stats for ``name``, registering it on first access.

        The returned accumulator is the live registered instance —
        samples observed afterwards are visible through it, and samples
        added through it are visible to every other reader.  (An unknown
        name used to return a detached empty accumulator that silently
        swallowed any updates.)
        """
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = RunningStats()
        return series

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of counters and series means, for reporting."""
        out = dict(self.scalars)
        for name, stats in self.series.items():
            out[f"{name}.mean"] = stats.mean
            out[f"{name}.count"] = stats.count
        return out
