"""Tests for the flight recorder subsystem (repro.obs)."""

import json

import pytest

from repro.core.config import RouterConfig
from repro.harness import churn, network_experiment
from repro.harness.churn import ChurnSpec, ChurnWorkload
from repro.harness.network_experiment import (
    NetworkExperiment,
    NetworkExperimentSpec,
)
from repro.harness.single_router import (
    ExperimentSpec,
    SingleRouterExperiment,
    run_single_router_experiment,
)
from repro.obs import (
    MANIFEST_SCHEMA,
    NULL_RECORDER,
    FlightRecorder,
    KernelProfiler,
    TelemetryHub,
    TimeSeries,
    build_manifest,
    config_digest,
    lifecycle_by_flit,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.trace_export import DELIVER, GRANT, INJECT
from repro.sim.engine import Simulator

from tests.polling_kernel import PollingKernel
from tests.scenarios import build_cbr_scenario


class TestTimeSeries:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TimeSeries("x", capacity=0)

    def test_ring_drops_oldest_but_aggregate_keeps_all(self):
        series = TimeSeries("x", capacity=3)
        for t in range(5):
            series.append(t, float(t))
        assert len(series) == 3
        assert series.dropped == 2
        assert [t for t, _ in series.samples()] == [2, 3, 4]
        # The whole-run aggregate still covers the dropped samples.
        assert series.stats.count == 5
        assert series.stats.mean == pytest.approx(2.0)

    def test_latest(self):
        series = TimeSeries("x")
        assert series.latest() is None
        series.append(7, 1.5)
        assert series.latest() == (7, 1.5)

    def test_to_dict_round_trips_through_json(self):
        series = TimeSeries("x", capacity=2)
        series.append(1, 2.0)
        record = json.loads(json.dumps(series.to_dict()))
        assert record["name"] == "x"
        assert record["count"] == 1
        assert record["samples"] == [[1, 2.0]]

    def test_empty_series_has_null_extremes(self):
        record = TimeSeries("x").to_dict()
        assert record["min"] is None and record["max"] is None


class TestTelemetryHub:
    def test_channel_registers_on_access(self):
        hub = TelemetryHub()
        channel = hub.channel("a")
        hub.sample("a", 1, 5.0)
        # The handle from before the first sample sees the sample.
        assert channel.stats.count == 1
        assert hub.channel("a") is channel
        assert "a" in hub

    def test_names_sorted(self):
        hub = TelemetryHub()
        hub.sample("b", 0, 0.0)
        hub.sample("a", 0, 0.0)
        assert hub.names() == ["a", "b"]

    def test_clear(self):
        hub = TelemetryHub()
        hub.sample("a", 0, 0.0)
        hub.clear()
        assert len(hub) == 0 and "a" not in hub


class TestManifest:
    def test_schema_and_provenance_fields(self):
        manifest = build_manifest(seed=9, command="test")
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["seed"] == 9
        assert manifest["command"] == "test"
        assert "python" in manifest and "created_iso" in manifest

    def test_config_digest_is_stable_and_discriminating(self):
        a = RouterConfig()
        b = RouterConfig()
        assert config_digest(a) == config_digest(b)
        c = RouterConfig(num_ports=4)
        assert config_digest(a) != config_digest(c)

    def test_manifest_embeds_dataclass_config(self):
        manifest = build_manifest(config=RouterConfig())
        assert manifest["config_digest"] == config_digest(RouterConfig())
        assert manifest["config"]["num_ports"] == RouterConfig().num_ports

    def test_manifest_is_json_safe(self):
        json.dumps(build_manifest(seed=1, config=RouterConfig(), extra={"k": 2}))


class TestKernelProfiler:
    def test_simulator_integration_accounts_every_cycle(self):
        recorder = FlightRecorder(manifest={})
        sim, _router = build_cbr_scenario(1, recorder=recorder)
        sim.run(2000)
        profile = recorder.kernel_snapshot()
        assert (
            profile["stepped_cycles"] + profile["fast_forwarded_cycles"]
            == sim.now
        )
        assert profile["fast_forward_ratio"] > 0.5  # 10% load idles a lot
        names = [t["name"] for t in profile["tickers"] if t["ticks"]]
        assert names  # the router ticker registered with its name
        assert profile["tickers"][0]["seconds"] >= 0.0

    def test_detached_profiler_leaves_simulator_unprofiled(self):
        recorder = FlightRecorder(manifest={})
        recorder.set_enabled(False)
        sim, _router = build_cbr_scenario(1, recorder=recorder)
        sim.run(500)
        assert recorder.profiler.stepped_cycles == 0

    def test_register_pads_sparse_indices(self):
        profiler = KernelProfiler()
        profiler.register(2, "late")
        assert [t.name for t in profiler.tickers] == ["ticker0", "ticker1", "late"]

    def test_every_ticker_cycle_is_a_tick_or_a_skip_under_deferral(self):
        # Sleeping routers' skips reach the profiler late and merged, but
        # once run() has returned they are all there.
        experiment = _sparse_torus()
        experiment.run_to(experiment.total_cycles)
        profiler = experiment.recorder.profiler
        assert profiler.fast_forwarded_cycles > 0
        assert any(t.skip_spans for t in profiler.tickers)
        for ticker in profiler.tickers:
            assert ticker.ticks + ticker.skipped_cycles == profiler.total_cycles, (
                ticker.name
            )


def _sparse_torus():
    return NetworkExperiment(
        NetworkExperimentSpec(
            target_link_load=0.02,
            topology="torus4x4",
            routing="dimension_order",
            warmup_cycles=500,
            measure_cycles=6000,
            seed=9,
            telemetry=True,
        )
    )


def _recorded_churn():
    return ChurnWorkload(
        ChurnSpec(
            num_sessions=60,
            mean_interarrival_cycles=300.0,
            mean_holding_cycles=4000.0,
            drain_cycles=20_000,
            num_nodes=8,
            seed=3,
            telemetry=True,
        )
    )


class TestIdleReplayIsSpanPure:
    """A sleeping router's round boundaries are sampled when it wakes,
    not when they happen.  The recorded series must not show it: every
    telemetry channel is sample-for-sample equal to the polling oracle's
    (``tests/polling_kernel.py``), which ticks every router every cycle.  The one exception is
    ``kernel.fast_forward_ratio``, which samples ``sim.now`` and the
    fast-forward count — kernel-dependent by definition."""

    @pytest.mark.parametrize("build", (_sparse_torus, _recorded_churn))
    def test_series_equal_the_polling_kernels(self, build, monkeypatch):
        series = {}
        for kernel in (Simulator, PollingKernel):
            monkeypatch.setattr(network_experiment, "Simulator", kernel)
            monkeypatch.setattr(churn, "Simulator", kernel)
            run = build()
            assert type(run.sim) is kernel
            run.result()
            snapshot = run.recorder.telemetry.snapshot()
            snapshot.pop("kernel.fast_forward_ratio", None)
            series[kernel] = snapshot
        assert series[Simulator].keys() == series[PollingKernel].keys()
        assert any(
            ".vc_occupancy" in name or ".cbr_cycles_reserved" in name
            for name in series[Simulator]
        )
        for name, channel in series[Simulator].items():
            assert channel == series[PollingKernel][name], name


class TestFlightRecorder:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0, manifest={})

    def test_trace_buffer_drops_when_full(self):
        recorder = FlightRecorder(capacity=2, manifest={})
        for t in range(4):
            recorder.flit_inject(t, 0, 0, 1, t)
        assert len(recorder.events) == 2
        assert recorder.dropped == 2

    def test_clear_resets_everything(self):
        recorder = FlightRecorder(manifest={})
        recorder.flit_inject(0, 0, 0, 1, 1)
        recorder.sample("ch", 0, 1.0)
        recorder.clear()
        assert recorder.events == []
        assert recorder.dropped == 0
        assert len(recorder.telemetry) == 0

    def test_null_recorder_cannot_be_enabled(self):
        assert NULL_RECORDER.enabled is False
        with pytest.raises(RuntimeError):
            NULL_RECORDER.set_enabled(True)
        NULL_RECORDER.set_enabled(False)  # no-op, allowed

    def test_null_recorder_discards_everything(self):
        NULL_RECORDER.flit_inject(0, 0, 0, 1, 1)
        NULL_RECORDER.sample("ch", 0, 1.0)
        assert NULL_RECORDER.events == []
        assert len(NULL_RECORDER.telemetry) == 0


class TestChromeTraceExport:
    def lifecycle_events(self):
        return [
            (INJECT, 0, 2, 1, 7, 100),
            (GRANT, 3, 2, 1, 7, 100),
            (DELIVER, 5, 4, 5, 7, 100),
        ]

    def test_lifecycle_becomes_span_plus_instants(self):
        payload = to_chrome_trace(self.lifecycle_events())
        counts = validate_chrome_trace(payload)
        assert counts["i"] == 3
        assert counts["b"] == 1 and counts["e"] == 1
        spans = [e for e in payload["traceEvents"] if e["ph"] in "be"]
        assert all(e["id"] == 100 for e in spans)
        begin, end = spans
        assert begin["ts"] == 0 and end["ts"] == 5
        assert begin["tid"] == 2  # the input port's track

    def test_manifest_rides_in_metadata(self):
        payload = to_chrome_trace([], manifest={"seed": 3})
        assert payload["metadata"] == {"seed": 3}
        validate_chrome_trace(payload)

    def test_telemetry_becomes_counter_events(self):
        telemetry = {"r.util": {"samples": [[10, 0.5], [20, 0.75]]}}
        payload = to_chrome_trace([], telemetry=telemetry)
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert [e["args"]["value"] for e in counters] == [0.5, 0.75]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            to_chrome_trace([(99, 0, 0, 0, -1, -1)])

    def test_validator_rejects_malformed_payloads(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])  # not an object
        with pytest.raises(ValueError):
            validate_chrome_trace({})  # no traceEvents
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "tid": 1}]}
            )
        with pytest.raises(ValueError, match="'id'"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"ph": "b", "name": "x", "pid": 1, "tid": 1, "ts": 0}
                    ]
                }
            )

    def test_lifecycle_by_flit_orders_kind_names(self):
        assert lifecycle_by_flit(self.lifecycle_events()) == {
            100: ["inject", "grant", "deliver"]
        }


class TestHarnessIntegration:
    SPEC = dict(
        target_load=0.4,
        seed=3,
        warmup_cycles=600,
        measure_cycles=1500,
    )

    def test_recorder_off_by_default(self):
        result = run_single_router_experiment(ExperimentSpec(**self.SPEC))
        assert result.recorder is None

    def test_telemetry_run_populates_recorder(self):
        result = run_single_router_experiment(
            ExperimentSpec(telemetry=True, **self.SPEC)
        )
        recorder = result.recorder
        assert recorder is not None
        assert recorder.manifest["seed"] == 3
        assert recorder.manifest["schema"] == MANIFEST_SCHEMA
        # Warm-up samples were discarded; measurement samples remain.
        channels = recorder.telemetry.names()
        assert any(name.endswith("link_utilisation") for name in channels)
        assert any(name.endswith("cbr_cycles_consumed") for name in channels)
        utilisation = next(
            recorder.telemetry.channel(name)
            for name in channels
            if name.endswith("link_utilisation")
        )
        assert 0.0 <= utilisation.stats.mean <= 1.0
        # The trace validates and covers delivered flits end to end.
        payload = recorder.chrome_trace()
        counts = validate_chrome_trace(json.loads(json.dumps(payload)))
        assert counts.get("b", 0) > 0
        lifecycles = lifecycle_by_flit(recorder.events)
        delivered = [
            kinds for kinds in lifecycles.values() if "deliver" in kinds
        ]
        assert delivered
        # Flits in flight when warm-up samples were discarded carry a
        # truncated prefix, so only suffixes of the full chain may appear
        # (the next test proves completeness on a recorder never cleared).
        allowed = (
            ["inject", "grant", "deliver"],
            ["grant", "deliver"],
            ["deliver"],
        )
        assert all(kinds in allowed for kinds in delivered)
        assert ["inject", "grant", "deliver"] in delivered

    def test_every_delivered_flit_is_traced_end_to_end(self):
        """8 streams, 1 000 cycles, one recorder from cycle 0: the trace
        holds one complete inject -> grant -> deliver chain per flit the
        output ports delivered, and nothing else delivered."""
        recorder = FlightRecorder(manifest={})
        delivered = []
        sim, _router = build_cbr_scenario(8, delivered=delivered, recorder=recorder)
        sim.run(1000)
        validate_chrome_trace(json.loads(json.dumps(recorder.chrome_trace())))
        lifecycles = lifecycle_by_flit(recorder.events).values()
        traced = [kinds for kinds in lifecycles if "deliver" in kinds]
        assert recorder.dropped == 0
        assert len(traced) == len(delivered) > 0
        assert all(kinds == ["inject", "grant", "deliver"] for kinds in traced)

    def test_reenabled_telemetry_resumes_with_one_round_windows(self):
        # Regression: the disabled early-out in sample_round skipped the
        # per-router window baselines too, so the first sample after
        # TelemetryHub.set_enabled(True) lumped the whole disabled span
        # into one delta.  Post-fix the first boundary re-baselines
        # silently and every emitted sample matches a never-disabled run.
        spec = ExperimentSpec(telemetry=True, **self.SPEC)
        ref = SingleRouterExperiment(spec)
        ref.run_to(ref.total_cycles)

        toggled = SingleRouterExperiment(spec)
        toggled.run_to(900)
        toggled.recorder.telemetry.set_enabled(False)
        toggled.run_to(1500)
        toggled.recorder.telemetry.set_enabled(True)
        toggled.run_to(toggled.total_cycles)

        hub = toggled.recorder.telemetry
        ref_hub = ref.recorder.telemetry
        checked = 0
        for name in hub.names():
            if not (
                name.endswith("switch_grants")
                or name.endswith("link_utilisation")
            ):
                continue
            ref_points = dict(ref_hub.channel(name).samples())
            for time, value in hub.channel(name).samples():
                if time < 900:
                    continue  # identical prefix by construction
                assert ref_points[time] == value, (name, time)
                checked += 1
        assert checked, "no post-enable samples — vacuous regression test"

    def test_export_is_json_safe_and_carries_manifest(self):
        result = run_single_router_experiment(
            ExperimentSpec(telemetry=True, **self.SPEC)
        )
        export = json.loads(json.dumps(result.recorder.export()))
        assert export["manifest"]["schema"] == MANIFEST_SCHEMA
        assert export["trace"]["traceEvents"]
        assert export["kernel"]["sim_now"] > 0


class TestDroppedSurfacing:
    """Per-store dropped counters must be visible, not silently absorbed."""

    def test_dropped_summary_names_every_store(self):
        recorder = FlightRecorder(capacity=2, manifest={})
        for t in range(4):
            recorder.flit_inject(t, 0, 0, 1, t)
        ring = recorder.telemetry.channel("small")
        ring.capacity = 1
        recorder.sample("small", 0, 1.0)
        recorder.sample("small", 1, 2.0)
        recorder.spans.capacity = 1
        recorder.spans.begin("a", "x", 0)
        recorder.spans.begin("b", "x", 0)
        summary = recorder.dropped_summary()
        assert summary["trace"] == 2
        assert summary["spans"] == 1
        assert summary["channels"] == {"small": 1}
        assert summary["total"] == 4

    def test_clean_recorder_certifies_no_truncation(self):
        recorder = FlightRecorder(manifest={})
        recorder.flit_inject(0, 0, 0, 1, 1)
        recorder.sample("ch", 0, 1.0)
        summary = recorder.dropped_summary()
        assert summary == {
            "trace": 0, "spans": 0, "channels": {}, "total": 0,
        }

    def test_clear_resets_span_store_too(self):
        recorder = FlightRecorder(manifest={})
        span = recorder.spans.begin("a", "x", 0)
        recorder.spans.end(span, 5)
        recorder.clear()
        assert len(recorder.spans) == 0
        assert recorder.dropped_summary()["total"] == 0

    def test_export_carries_spans_and_dropped(self):
        recorder = FlightRecorder(manifest={"schema": "x"})
        span = recorder.spans.begin("session 1", "session", 0)
        recorder.spans.end(span, 10)
        export = json.loads(json.dumps(recorder.export()))
        assert export["span_count"] == 1
        assert export["spans_open"] == 0
        (record,) = export["spans"]
        assert record["name"] == "session 1"
        assert record["duration"] == 10
        assert export["dropped"]["total"] == 0
        # Spans ride in the Chrome trace on the control-plane pid.
        span_events = [
            e for e in export["trace"]["traceEvents"] if e["ph"] == "X"
        ]
        assert len(span_events) == 1 and span_events[0]["pid"] == 2
