"""Tests for the streaming statistics accumulators."""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.stats import (
    ConnectionStats,
    Histogram,
    RunningStats,
    StatsRegistry,
    TimeWeightedStats,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_single_sample(self):
        s = RunningStats()
        s.add(4.0)
        assert s.mean == 4.0
        assert s.variance == 0.0
        assert s.minimum == 4.0
        assert s.maximum == 4.0

    def test_known_values(self):
        s = RunningStats()
        s.extend([2.0, 4.0, 6.0])
        assert s.mean == pytest.approx(4.0)
        assert s.variance == pytest.approx(8.0 / 3.0)
        assert s.total == pytest.approx(12.0)

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_matches_direct_computation(self, values):
        s = RunningStats()
        s.extend(values)
        mean = sum(values) / len(values)
        assert s.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert s.variance == pytest.approx(var, rel=1e-6, abs=1e-4)
        assert s.minimum == min(values)
        assert s.maximum == max(values)
        assert s.count == len(values)

    @given(
        st.lists(finite_floats, min_size=0, max_size=100),
        st.lists(finite_floats, min_size=0, max_size=100),
    )
    def test_merge_equals_concatenation(self, left, right):
        merged = RunningStats()
        merged.extend(left)
        other = RunningStats()
        other.extend(right)
        merged.merge(other)
        direct = RunningStats()
        direct.extend(left + right)
        assert merged.count == direct.count
        assert merged.mean == pytest.approx(direct.mean, rel=1e-9, abs=1e-6)
        assert merged.variance == pytest.approx(direct.variance, rel=1e-6, abs=1e-4)

    def test_merge_empty_into_full(self):
        s = RunningStats()
        s.extend([1.0, 2.0])
        s.merge(RunningStats())
        assert s.count == 2
        assert s.mean == pytest.approx(1.5)

    def test_stdev(self):
        s = RunningStats()
        s.extend([1.0, 3.0])
        assert s.stdev == pytest.approx(1.0)

    def test_repr(self):
        s = RunningStats()
        s.add(1.0)
        assert "count=1" in repr(s)


class TestHistogram:
    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 1.0, 4)

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, 0)

    def test_binning(self):
        h = Histogram(0.0, 10.0, 10)
        h.add(0.5)
        h.add(9.5)
        assert h.counts[0] == 1
        assert h.counts[9] == 1

    def test_underflow_overflow(self):
        h = Histogram(0.0, 1.0, 2)
        h.add(-0.1)
        h.add(1.0)  # top edge is exclusive
        assert h.underflow == 1
        assert h.overflow == 1
        assert h.total == 2

    def test_weighted_add(self):
        h = Histogram(0.0, 1.0, 1)
        h.add(0.5, weight=7)
        assert h.counts[0] == 7

    def test_quantile_empty(self):
        h = Histogram(0.0, 1.0, 4)
        assert h.quantile(0.5) == 0.0

    def test_quantile_bounds_validated(self):
        h = Histogram(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_quantile_median_of_uniform(self):
        h = Histogram(0.0, 100.0, 100)
        for i in range(100):
            h.add(i + 0.5)
        assert h.quantile(0.5) == pytest.approx(50.0, abs=1.5)

    @given(st.lists(st.floats(0.0, 99.999), min_size=1, max_size=300))
    def test_quantile_monotone(self, values):
        h = Histogram(0.0, 100.0, 20)
        for v in values:
            h.add(v)
        qs = [h.quantile(q / 10) for q in range(11)]
        assert all(a <= b + 1e-9 for a, b in zip(qs, qs[1:]))

    def test_nonzero_bins(self):
        h = Histogram(0.0, 4.0, 4)
        h.add(2.5)
        assert h.nonzero_bins() == [(2.0, 1)]

    def test_quantile_extremes_span_the_data(self):
        h = Histogram(0.0, 10.0, 10)
        h.add(2.5)
        h.add(7.5)
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)
        assert h.quantile(1.0) <= h.high
        assert h.quantile(0.0) >= h.low

    def test_quantile_all_underflow_clamps_to_low(self):
        h = Histogram(0.0, 1.0, 4)
        for _ in range(5):
            h.add(-3.0)
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 0.0

    def test_quantile_all_overflow_clamps_to_high(self):
        h = Histogram(0.0, 1.0, 4)
        for _ in range(5):
            h.add(2.0)
        # No bin ever reaches the target, so every quantile reports the
        # top edge — the closest value the histogram can attribute.
        assert h.quantile(0.5) == h.high
        assert h.quantile(1.0) == h.high

    def test_quantile_single_bin_interpolates(self):
        h = Histogram(0.0, 1.0, 1)
        for _ in range(4):
            h.add(0.5)
        assert 0.0 <= h.quantile(0.25) <= 1.0
        assert h.quantile(0.25) == pytest.approx(0.25)
        assert h.quantile(1.0) == pytest.approx(1.0)


class TestTimeWeightedStats:
    def test_constant_signal(self):
        t = TimeWeightedStats(initial_value=3.0)
        t.finish(10.0)
        assert t.mean == pytest.approx(3.0)

    def test_step_signal(self):
        t = TimeWeightedStats()
        t.record(5.0, 10.0)  # value 0 for 5 units
        t.finish(10.0)  # value 10 for 5 units
        assert t.mean == pytest.approx(5.0)

    def test_rejects_time_reversal(self):
        t = TimeWeightedStats()
        t.record(5.0, 1.0)
        with pytest.raises(ValueError):
            t.record(4.0, 2.0)

    def test_empty_window(self):
        t = TimeWeightedStats()
        assert t.mean == 0.0

    def test_finish_twice_at_same_time_is_idempotent(self):
        t = TimeWeightedStats(initial_value=4.0)
        t.finish(10.0)
        first = t.mean
        t.finish(10.0)  # zero-length extension: mean must not move
        assert t.mean == pytest.approx(first) == pytest.approx(4.0)

    def test_finish_then_later_finish_extends_the_window(self):
        t = TimeWeightedStats()
        t.record(5.0, 10.0)
        t.finish(10.0)
        assert t.mean == pytest.approx(5.0)
        t.finish(20.0)  # the last value (10.0) holds for 10 more units
        assert t.mean == pytest.approx((0.0 * 5 + 10.0 * 15) / 20)

    def test_finish_rejects_time_reversal(self):
        t = TimeWeightedStats()
        t.record(5.0, 1.0)
        with pytest.raises(ValueError):
            t.finish(4.0)


class TestConnectionStats:
    def test_first_flit_has_no_jitter(self):
        c = ConnectionStats()
        c.record_flit(5.0)
        assert c.flits == 1
        assert c.jitter.count == 0

    def test_jitter_is_abs_successive_difference(self):
        c = ConnectionStats()
        c.record_flit(5.0)
        c.record_flit(8.0)
        c.record_flit(2.0)
        assert c.jitter.count == 2
        assert c.jitter.mean == pytest.approx((3.0 + 6.0) / 2)

    def test_constant_delay_zero_jitter(self):
        c = ConnectionStats()
        for _ in range(10):
            c.record_flit(4.0)
        assert c.jitter.mean == 0.0
        assert c.delay.mean == pytest.approx(4.0)

    @given(st.lists(st.floats(0, 1e5), min_size=2, max_size=100))
    def test_jitter_matches_definition(self, delays):
        c = ConnectionStats()
        for d in delays:
            c.record_flit(d)
        expected = [abs(b - a) for a, b in zip(delays, delays[1:])]
        assert c.jitter.count == len(expected)
        assert c.jitter.mean == pytest.approx(
            sum(expected) / len(expected), rel=1e-9, abs=1e-9
        )


def _state(stats):
    """Every field of a ``RunningStats``, by ``repr``: bit-identical,
    type included (an int minimum stays an int)."""
    return repr(
        (stats.count, stats._total, stats._mean, stats._m2, stats._min, stats._max)
    )


delay_streams = st.one_of(
    st.lists(st.integers(0, 5000), max_size=80),
    st.lists(st.floats(0, 1e5, allow_nan=False), max_size=80),
)


class TestFoldIdentity:
    """Delays appended and folded in batches are bit-identical to folding
    each one as it arrives, wherever the batches are cut."""

    @settings(max_examples=150, deadline=None)
    @given(
        delay_streams,
        st.lists(
            st.tuples(st.integers(0, 80), st.sampled_from(["read", "fold", "pickle"])),
            max_size=12,
        ),
    )
    def test_connection_stats_match_streaming(self, delays, cuts):
        splits = {}
        for position, how in cuts:
            splits.setdefault(position, []).append(how)
        batched = ConnectionStats()
        delay, jitter, last = RunningStats(), RunningStats(), None
        for position, value in enumerate(delays):
            for how in splits.get(position, ()):
                if how == "read":
                    batched.jitter
                elif how == "fold":
                    batched.fold()
                else:
                    batched = pickle.loads(pickle.dumps(batched))
                    assert batched.pending == []
            batched.record_flit(value)
            delay.add(value)
            if last is not None:
                jitter.add(abs(value - last))
            last = value
        assert batched.flits == len(delays)
        assert _state(batched.delay) == _state(delay)
        assert _state(batched.jitter) == _state(jitter)

    def test_record_flit_folds_at_the_bound(self):
        stats = ConnectionStats()
        for value in range(ConnectionStats.FOLD_EVERY - 1):
            stats.record_flit(value)
        assert len(stats.pending) == ConnectionStats.FOLD_EVERY - 1
        stats.record_flit(0)
        assert stats.pending == []

    @given(st.lists(st.integers(0, 300), max_size=60), st.integers(0, 60))
    def test_deferred_series_matches_observe(self, delays, cut):
        streamed = StatsRegistry()
        histogram = Histogram(0.0, 256.0, 64)
        reference = Histogram(0.0, 256.0, 64)
        batched = StatsRegistry()
        samples = batched.defer("d", histogram)
        for position, value in enumerate(delays):
            if position == cut:
                batched.get_series("d")
            samples.append(value)
            streamed.observe("d", value)
            reference.add(value)
        assert _state(batched.get_series("d")) == _state(streamed.get_series("d"))
        assert (histogram.counts, histogram.overflow) == (
            reference.counts,
            reference.overflow,
        )


class TestStatsRegistry:
    def test_counter_accumulates(self):
        r = StatsRegistry()
        r.counter("x")
        r.counter("x", 2.5)
        assert r.get_counter("x") == 3.5

    def test_missing_counter_is_zero(self):
        assert StatsRegistry().get_counter("nope") == 0.0

    def test_observe_series(self):
        r = StatsRegistry()
        r.observe("d", 1.0)
        r.observe("d", 3.0)
        assert r.get_series("d").mean == pytest.approx(2.0)

    def test_missing_series_is_empty(self):
        assert StatsRegistry().get_series("nope").count == 0

    def test_get_series_registers_on_access(self):
        r = StatsRegistry()
        series = r.get_series("late")
        # Samples observed after the lookup are visible through the
        # handle the caller already holds (it used to be detached).
        r.observe("late", 7.0)
        assert series.count == 1
        assert series.mean == pytest.approx(7.0)
        assert r.get_series("late") is series

    def test_get_series_handle_feeds_the_registry(self):
        r = StatsRegistry()
        r.get_series("fed").add(3.0)
        assert r.snapshot()["fed.count"] == 1

    def test_snapshot(self):
        r = StatsRegistry()
        r.counter("c", 2)
        r.observe("s", 4.0)
        snap = r.snapshot()
        assert snap["c"] == 2
        assert snap["s.mean"] == 4.0
        assert snap["s.count"] == 1
