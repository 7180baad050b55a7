"""Tests for frame traces, figure export and the queueing references."""

import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bandwidth import BandwidthRequest
from repro.core.config import RouterConfig
from repro.core.priority import BiasedPriority
from repro.core.router import Router
from repro.core.switch_scheduler import GreedyPriorityScheduler
from repro.core.virtual_channel import ServiceClass
from repro.harness.export import (
    figure_from_dict,
    figure_to_dict,
    round_trip_figure,
    write_figure_csv,
    write_figure_json,
)
from repro.harness.figures import FigureData
from repro.harness.single_router import ExperimentSpec, run_single_router_experiment
from repro.qos.queueing import (
    md1_mean_sojourn,
    md1_mean_wait,
    nd_d1_mean_wait,
    nd_d1_worst_case_wait,
    saturation_load_hol_blocking,
)
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng
from repro.traffic.traces import FrameRecord, FrameTrace, TraceVbrSource
from repro.traffic.vbr import MpegProfile


class TestFrameTrace:
    def trace(self):
        return FrameTrace(
            30.0,
            [FrameRecord("I", 3000), FrameRecord("B", 1000), FrameRecord("P", 2000)],
        )

    def test_record_validation(self):
        with pytest.raises(ValueError):
            FrameRecord("", 100)
        with pytest.raises(ValueError):
            FrameRecord("I", 0)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            FrameTrace(0.0, [])

    def test_statistics(self):
        trace = self.trace()
        assert len(trace) == 3
        assert trace.total_bits == 6000
        assert trace.duration_seconds == pytest.approx(0.1)
        assert trace.mean_rate_bps == pytest.approx(60000.0)
        assert trace.kinds() == ["I", "B", "P"]

    def test_peak_rate_single_frame_window(self):
        trace = self.trace()
        assert trace.peak_rate_bps(1) == pytest.approx(3000 * 30.0)

    def test_peak_rate_window_bounds(self):
        trace = self.trace()
        with pytest.raises(ValueError):
            trace.peak_rate_bps(0)
        # Window larger than the trace clamps to the whole trace.
        assert trace.peak_rate_bps(10) == pytest.approx(trace.mean_rate_bps)

    def test_dump_parse_roundtrip(self):
        trace = self.trace()
        buffer = io.StringIO()
        trace.dump(buffer)
        buffer.seek(0)
        parsed = FrameTrace.parse(buffer)
        assert parsed.frame_rate_hz == trace.frame_rate_hz
        assert parsed.frames == trace.frames

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            FrameTrace.parse(io.StringIO("I 100 extra\n"))

    def test_parse_skips_blanks_and_comments(self):
        text = "# a comment\n\n# frame_rate_hz: 25.0\nI 100\n"
        trace = FrameTrace.parse(io.StringIO(text))
        assert trace.frame_rate_hz == 25.0
        assert len(trace) == 1

    def test_synthesise_matches_profile_rate(self):
        profile = MpegProfile(mean_rate_bps=5e6, frame_rate_hz=30.0, sigma=0.2)
        trace = FrameTrace.synthesise(profile, 600, SeededRng(4, "tr"))
        assert len(trace) == 600
        assert trace.mean_rate_bps == pytest.approx(5e6, rel=0.15)
        assert set(trace.kinds()) == {"I", "P", "B"}

    def test_synthesise_validation(self):
        profile = MpegProfile(mean_rate_bps=5e6)
        with pytest.raises(ValueError):
            FrameTrace.synthesise(profile, 0, SeededRng(1, "x"))


class TestTraceVbrSource:
    def test_plays_and_loops(self):
        config = RouterConfig(
            num_ports=4, vcs_per_port=8, enforce_round_budgets=False
        )
        sim = Simulator()
        router = Router(config, BiasedPriority(), GreedyPriorityScheduler(), sim)
        vc = router.open_connection(
            1, 0, 1, BandwidthRequest(1, 4), service_class=ServiceClass.VBR
        )
        # 2 tiny frames at a very high frame rate so the trace loops.
        trace = FrameTrace(
            10000.0, [FrameRecord("I", 256), FrameRecord("B", 128)]
        )
        source = TraceVbrSource(sim, router, 1, 0, vc, trace, config)
        source.start()
        sim.run(5000)
        assert source.frames_played > 2  # looped
        assert source.flits_injected == source.flits_generated
        assert router.connection_stats[1].flits > 0

    def test_no_loop_stops_at_end(self):
        config = RouterConfig(
            num_ports=4, vcs_per_port=8, enforce_round_budgets=False
        )
        sim = Simulator()
        router = Router(config, BiasedPriority(), GreedyPriorityScheduler(), sim)
        vc = router.open_connection(
            1, 0, 1, BandwidthRequest(1, 4), service_class=ServiceClass.VBR
        )
        trace = FrameTrace(10000.0, [FrameRecord("I", 256)])
        source = TraceVbrSource(sim, router, 1, 0, vc, trace, config, loop=False)
        source.start()
        sim.run(3000)
        assert source.frames_played == 1

    def test_empty_trace_rejected(self):
        config = RouterConfig(num_ports=4, vcs_per_port=8)
        sim = Simulator()
        router = Router(config, BiasedPriority(), GreedyPriorityScheduler(), sim)
        with pytest.raises(ValueError):
            TraceVbrSource(sim, router, 1, 0, 0, FrameTrace(30.0, []), config)


TINY = RouterConfig(num_ports=4, vcs_per_port=32, enforce_round_budgets=False)


class TestExport:
    def figure(self):
        return FigureData(
            title="T", x_label="load", xs=[0.1, 0.2],
            series={"a": [1.0, 2.0], "b": [3.0, 4.0]},
        )

    def test_figure_json_roundtrip(self):
        original = self.figure()
        rebuilt = round_trip_figure(original)
        assert rebuilt.title == original.title
        assert rebuilt.xs == original.xs
        assert rebuilt.series == original.series

    def test_figure_csv(self):
        buffer = io.StringIO()
        write_figure_csv(self.figure(), buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "load,a,b"
        assert lines[1] == "0.1,1.0,3.0"

    def test_figure_from_dict_coerces_types(self):
        rebuilt = figure_from_dict(
            {"title": "T", "x_label": "x", "xs": ["0.5"], "series": {"s": ["2"]}}
        )
        assert rebuilt.xs == [0.5]
        assert rebuilt.series["s"] == [2.0]


class TestQueueingReferences:
    def test_md1_known_values(self):
        assert md1_mean_wait(0.0) == 0.0
        assert md1_mean_wait(0.5) == pytest.approx(0.5)
        assert md1_mean_wait(0.9) == pytest.approx(4.5)
        assert md1_mean_sojourn(0.5) == pytest.approx(1.5)

    def test_md1_validation(self):
        with pytest.raises(ValueError):
            md1_mean_wait(1.0)
        with pytest.raises(ValueError):
            md1_mean_wait(-0.1)

    def test_nd_d1_worst_case(self):
        assert nd_d1_worst_case_wait(8, 10.0) == 7.0
        with pytest.raises(ValueError):
            nd_d1_worst_case_wait(8, 7.0)  # unstable

    def test_nd_d1_mean_below_md1(self):
        # Periodic superposition is smoother than Poisson.
        for n, period in [(8, 10.0), (32, 40.0), (64, 70.0)]:
            rho = n / period
            assert nd_d1_mean_wait(n, period) < md1_mean_wait(rho)

    def test_nd_d1_single_stream_no_wait(self):
        assert nd_d1_mean_wait(1, 5.0) == 0.0

    def test_hol_blocking_limits(self):
        assert saturation_load_hol_blocking(1) == 1.0
        assert saturation_load_hol_blocking(8) == pytest.approx(0.6184)
        assert saturation_load_hol_blocking(1000) == pytest.approx(0.5858, abs=1e-3)
        with pytest.raises(ValueError):
            saturation_load_hol_blocking(0)

    def test_simulated_perfect_switch_below_md1_envelope(self):
        """The perfect switch reduces each input to a ΣD/D/1 queue, which
        must sit below the Poisson (M/D/1) envelope at equal load."""
        spec = ExperimentSpec(
            target_load=0.6, config=TINY, scheduler="perfect", candidates=8,
            seed=5, warmup_cycles=500, measure_cycles=4000,
        )
        result = run_single_router_experiment(spec)
        # Delay = wait + 1 service cycle (the pipeline minimum).
        simulated_wait = result.mean_delay_cycles - 1.0
        envelope = md1_mean_wait(result.offered_load)
        assert simulated_wait <= envelope + 0.5

    def test_simulated_c1_saturation_near_hol_theory(self):
        """C=1 candidate selection behaves like HOL blocking; measured
        saturation must land near the theoretical limit."""
        from repro.harness.saturation import find_saturation_load

        config = RouterConfig(
            num_ports=4, vcs_per_port=64, round_factor=8,
            enforce_round_budgets=False,
        )
        base = ExperimentSpec(
            target_load=0.5, config=config, candidates=1, seed=3,
            warmup_cycles=1000, measure_cycles=4000,
        )
        estimate = find_saturation_load(base, low=0.4, high=0.95, tolerance=0.05)
        theory = saturation_load_hol_blocking(4)
        assert abs(estimate.estimate - theory) < 0.15
