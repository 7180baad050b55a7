"""Tests for the session-churn workload harness."""

import pytest

from repro.core.bandwidth import BandwidthRequest
from repro.core.config import RouterConfig
from repro.core.priority import BiasedPriority
from repro.harness.churn import ChurnSpec, ChurnWorkload, run_churn_experiment
from repro.harness.single_router import SimulatedWorkerCrash
from repro.harness.sweep import SweepAxis, run_sweep
from repro.network.network import Network
from repro.network.policing import TokenBucket
from repro.network.probe_protocol import ProbeProtocol
from repro.network.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng
from repro.traffic.cbr import CbrSource


def small_spec(**overrides):
    """A churn point small enough for unit tests (~1-2 s)."""
    base = dict(
        num_sessions=80,
        mean_interarrival_cycles=200.0,
        mean_holding_cycles=4000.0,
        drain_cycles=30_000,
        num_nodes=8,
        seed=3,
    )
    base.update(overrides)
    return ChurnSpec(**base)


class TestChurnSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnSpec(num_sessions=0)
        with pytest.raises(ValueError):
            ChurnSpec(mean_interarrival_cycles=0.0)
        with pytest.raises(ValueError):
            ChurnSpec(vbr_fraction=1.5)
        with pytest.raises(ValueError):
            ChurnSpec(diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            ChurnSpec(num_nodes=1)

    def test_horizon_covers_arrivals_and_drain(self):
        spec = small_spec()
        assert spec.max_cycles > spec.num_sessions * spec.mean_interarrival_cycles
        assert spec.max_cycles > spec.drain_cycles


class TestChurnRun:
    def test_end_to_end_drains_leak_free(self):
        result = run_churn_experiment(small_spec())
        assert result.drained
        assert result.leak_free, result.leak_report
        assert result.arrivals == 80
        assert result.established + result.blocked == result.arrivals
        assert result.torn_down == result.established
        assert result.established > 0
        assert result.flits_delivered > 0
        assert result.qos.mean_delay_cycles > 0
        # Every delivered flit belonged to a session the rate table knew.
        assert result.unclassified_connections == 0
        assert 0.0 < result.setup_p50 <= result.setup_p99
        assert 0.0 <= result.blocking_probability < 1.0

    def test_deterministic_for_same_seed(self):
        a = run_churn_experiment(small_spec())
        b = run_churn_experiment(small_spec())
        assert a.established == b.established
        assert a.setup_p50 == b.setup_p50
        assert a.flits_delivered == b.flits_delivered
        assert a.qos.mean_delay_cycles == b.qos.mean_delay_cycles

    def test_seed_changes_workload(self):
        a = run_churn_experiment(small_spec(seed=3))
        b = run_churn_experiment(small_spec(seed=4))
        assert a.flits_delivered != b.flits_delivered

    def test_blocking_under_overload_stays_leak_free(self):
        # A small, VC-starved network with sessions arriving much faster
        # than they leave: establishment attempts must be NACKed back out
        # of the network, and every NACK must leave no residue.
        result = run_churn_experiment(
            small_spec(
                num_sessions=60,
                mean_interarrival_cycles=30.0,
                mean_holding_cycles=20_000.0,
                num_nodes=4,
                vcs_per_port=4,
                vbr_fraction=0.0,
            )
        )
        assert result.blocked > 0
        assert result.blocking_probability > 0.0
        assert result.drained
        assert result.leak_free, result.leak_report
        assert result.backtracks > 0 or result.blocked > 0

    def test_renegotiations_happen_and_balance(self):
        result = run_churn_experiment(
            small_spec(vbr_fraction=1.0, renegotiation_fraction=1.0)
        )
        assert result.renegotiations_applied > 0
        assert result.drained
        assert result.leak_free, result.leak_report

    def test_diurnal_modulation_changes_arrival_spacing(self):
        flat = run_churn_experiment(small_spec())
        wavy = run_churn_experiment(
            small_spec(diurnal_amplitude=0.8, diurnal_period_cycles=4000.0)
        )
        assert wavy.drained and wavy.leak_free
        assert wavy.flits_delivered != flat.flits_delivered

    def test_unpoliced_run_also_balances(self):
        result = run_churn_experiment(small_spec(police=False))
        assert result.drained
        assert result.leak_free, result.leak_report


class TestChurnTelemetry:
    def test_channels_recorded(self):
        result = run_churn_experiment(small_spec(telemetry=True))
        assert result.recorder is not None
        names = set(result.recorder.telemetry.names())
        assert "churn.active_sessions" in names
        assert "churn.blocking_rate" in names
        assert "churn.setup_latency_last" in names

    def test_disabled_by_default(self):
        assert run_churn_experiment(small_spec()).recorder is None


class TestChurnSweep:
    def test_parallel_rows_match_serial(self):
        axes = [
            SweepAxis("mean_interarrival_cycles", (150.0, 300.0)),
            SweepAxis("vbr_fraction", (0.0, 0.5)),
        ]
        spec = small_spec(num_sessions=40)
        serial = run_sweep(spec, axes, _runner=run_churn_experiment)
        parallel = run_sweep(spec, axes, jobs=2, _runner=run_churn_experiment)
        columns = ["blocking_probability", "setup_p50", "mean_delay_cycles"]
        assert serial.rows(columns) == parallel.rows(columns)
        assert len(serial.results) == 4


class TestChurnCheckpoint:
    def test_crash_and_resume_matches_straight_run(self, tmp_path):
        spec = small_spec(num_sessions=40)
        path = tmp_path / "churn.ckpt"
        straight = run_churn_experiment(spec)
        with pytest.raises(SimulatedWorkerCrash):
            run_churn_experiment(
                spec,
                checkpoint_every=4000,
                checkpoint_path=path,
                _crash_at_cycle=8000,
            )
        assert path.exists()
        resumed = run_churn_experiment(
            spec, checkpoint_every=4000, checkpoint_path=path, resume=True
        )
        assert resumed.checkpoint["resumed_from_cycle"] is not None
        assert resumed.established == straight.established
        assert resumed.blocked == straight.blocked
        assert resumed.flits_delivered == straight.flits_delivered
        assert resumed.setup_p50 == straight.setup_p50
        assert resumed.qos.mean_delay_cycles == straight.qos.mean_delay_cycles
        assert resumed.leak_free, resumed.leak_report

    def test_checkpoint_requires_path(self):
        with pytest.raises(ValueError):
            run_churn_experiment(small_spec(), checkpoint_every=1000)

    def test_workload_snapshot_roundtrip(self, tmp_path):
        spec = small_spec(num_sessions=30)
        workload = ChurnWorkload(spec)
        workload.run_to(5000)
        path = tmp_path / "mid.ckpt"
        workload.checkpoint(path)
        restored = ChurnWorkload.resume(path, expect_spec=spec)
        assert restored.now == workload.now
        assert restored.arrivals_launched == workload.arrivals_launched
        a = workload.result()
        b = restored.result()
        assert a.flits_delivered == b.flits_delivered
        assert a.leak_free and b.leak_free


class TestPolicerShaping:
    def _establish(self):
        topo = Topology(2, [(0, 1)])
        config = RouterConfig(
            num_ports=topo.num_ports,
            vcs_per_port=8,
            round_factor=2,
            enforce_round_budgets=False,
        )
        sim = Simulator()
        network = Network(
            topo, config, BiasedPriority(), sim, SeededRng(9, "shape")
        )
        protocol = ProbeProtocol(network)
        results = []
        session = protocol.establish(
            0,
            1,
            BandwidthRequest(2),
            lambda s, ok: results.append(ok),
            interarrival_cycles=config.rate_to_interarrival_cycles(55e6),
        )
        sim.run(50)
        assert results == [True]
        return network, sim, config, session

    def test_renegotiated_down_session_is_shaped(self):
        # A session renegotiated to half its rate keeps *generating* at
        # the old pace, but the policer admits only the new contract —
        # the second half of the run injects half the flits.
        network, sim, config, session = self._establish()
        interarrival = config.rate_to_interarrival_cycles(55e6)
        policer = TokenBucket(1.0 / interarrival, burst=2.0)
        source = CbrSource(
            sim,
            network.routers[0],
            -session.session_id,
            session.entry_ports[0],
            session.vcs[0],
            55e6,
            config,
            phase=1.0,
            policer=policer,
        )
        source.start()
        sim.run(10_000)
        first_half = source.flits_injected
        policer.set_rate(0.5 / interarrival, now=sim.now)
        sim.run(10_000)
        second_half = source.flits_injected - first_half
        assert first_half > 100
        assert second_half == pytest.approx(first_half / 2, rel=0.15)

    def test_unpoliced_source_injects_at_full_rate(self):
        network, sim, config, session = self._establish()
        source = CbrSource(
            sim,
            network.routers[0],
            -session.session_id,
            session.entry_ports[0],
            session.vcs[0],
            55e6,
            config,
            phase=1.0,
        )
        source.start()
        sim.run(10_000)
        expected = 10_000 / config.rate_to_interarrival_cycles(55e6)
        assert source.flits_injected == pytest.approx(expected, rel=0.05)


def _probe_build(topo, recorder, vcs=8):
    """A Network + ProbeProtocol with a flight recorder attached."""
    config = RouterConfig(
        num_ports=topo.num_ports,
        vcs_per_port=vcs,
        round_factor=2,
        enforce_round_budgets=False,
    )
    sim = Simulator()
    network = Network(
        topo, config, BiasedPriority(), sim, SeededRng(6, "probe"),
        recorder=recorder,
    )
    return network, ProbeProtocol(network), sim, config


def _drop(session, established):
    pass


class TestControlPlaneSpans:
    """Span trees emitted by the probe protocol under a recorder."""

    def test_backtracking_setup_span_tree(self):
        from repro.obs import FlightRecorder
        from repro.obs.spans import STATUS_OK

        # A 1->4 blocker fills the 1->3 link, so a 0->3 probe dead-ends
        # at node 1 and must backtrack via node 2 (the scenario from
        # test_probe_protocol.py, here checked for its span tree).
        topo = Topology(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        recorder = FlightRecorder(manifest={})  # enabled by default
        network, protocol, sim, config = _probe_build(topo, recorder)
        cap = config.round_length
        blocker = protocol.establish(1, 4, BandwidthRequest(cap), _drop)
        sim.run(200)
        assert blocker.established
        probe = protocol.establish(0, 3, BandwidthRequest(cap), _drop)
        sim.run(400)
        assert probe.established and probe.backtracks >= 1

        spans = recorder.spans
        root = spans.get(probe.span_id)
        assert root is not None and root.name == f"session {probe.session_id}"
        setup = spans.get(probe.setup_span)
        assert setup.parent_id == root.span_id
        assert setup.status == STATUS_OK
        assert setup.args["backtracks"] == probe.backtracks
        children = spans.children(setup.span_id)
        names = [s.name for s in children]
        assert "backtrack" in names
        assert names[-1] == "ack"
        assert names.count("hop") >= len(probe.path) - 1
        # Setup is closed; the session root stays open until teardown.
        assert setup.closed and not root.closed

    def test_blocked_setup_closes_root_as_blocked(self):
        from repro.obs import FlightRecorder
        from repro.obs.spans import STATUS_BLOCKED

        topo = Topology(3, [(0, 1), (1, 2)])
        recorder = FlightRecorder(manifest={})  # enabled by default
        network, protocol, sim, config = _probe_build(topo, recorder)
        cap = config.round_length
        first = protocol.establish(0, 2, BandwidthRequest(cap), _drop)
        sim.run(200)
        assert first.established
        second = protocol.establish(0, 2, BandwidthRequest(1), _drop)
        sim.run(200)
        assert not second.established
        root = recorder.spans.get(second.span_id)
        setup = recorder.spans.get(second.setup_span)
        assert root.closed and root.status == STATUS_BLOCKED
        assert setup.closed and setup.status == STATUS_BLOCKED

    def test_rolled_back_renegotiation_span_tree(self):
        from repro.obs import FlightRecorder
        from repro.obs.spans import STATUS_REFUSED, STATUS_ROLLED_BACK

        # Session A (0->2) renegotiates up into capacity held by session
        # B on the shared 1->2 link: the SET_BANDWIDTH word NACKs at that
        # hop and the earlier hop rolls back.
        topo = Topology(3, [(0, 1), (1, 2)])
        recorder = FlightRecorder(manifest={})  # enabled by default
        network, protocol, sim, config = _probe_build(topo, recorder)
        cap = config.round_length
        a = protocol.establish(0, 2, BandwidthRequest(2), _drop)
        sim.run(200)
        assert a.established
        b = protocol.establish(1, 2, BandwidthRequest(cap - 2), _drop)
        sim.run(200)
        assert b.established
        assert not protocol.renegotiate(a, BandwidthRequest(4))

        renegs = [
            s for s in recorder.spans.spans("renegotiation")
            if s.name == "renegotiation"
        ]
        assert len(renegs) == 1
        reneg = renegs[0]
        assert reneg.parent_id == a.span_id
        assert reneg.status == STATUS_ROLLED_BACK
        children = recorder.spans.children(reneg.span_id)
        statuses = [s.status for s in children if s.name == "set_bandwidth"]
        assert STATUS_REFUSED in statuses
        assert any(s.name == "rollback" for s in children)
        assert all(
            s.status == STATUS_ROLLED_BACK
            for s in children if s.name == "rollback"
        )

    def test_teardown_closes_the_session_tree(self):
        from repro.obs import FlightRecorder

        topo = Topology(3, [(0, 1), (1, 2)])
        recorder = FlightRecorder(manifest={})  # enabled by default
        network, protocol, sim, config = _probe_build(topo, recorder)
        session = protocol.establish(0, 2, BandwidthRequest(2), _drop)
        sim.run(200)
        assert session.established
        protocol.teardown(session)
        sim.run(200)
        assert not session.established
        assert recorder.spans.open_count == 0
        teardown = recorder.spans.get(session.teardown_span)
        assert teardown.parent_id == session.span_id
        hops = [
            s for s in recorder.spans.children(teardown.span_id)
            if s.name == "teardown_hop"
        ]
        assert len(hops) == len(session.path)


class TestChurnObservability:
    """End-to-end: churn run -> spans, SLOs, health, Perfetto export."""

    def test_trace_exports_complete_span_trees(self):
        from repro.obs import validate_chrome_trace

        result = run_churn_experiment(small_spec(telemetry=True))
        recorder = result.recorder
        spans = recorder.spans
        assert spans.open_count == 0
        assert spans.dropped == 0
        roots = spans.roots()
        assert len(roots) == result.established + result.blocked
        # Every established session shows the full lifecycle under its root.
        setups = spans.spans("setup")
        assert len(setups) == result.arrivals
        teardowns = [
            s for s in spans.spans("teardown") if s.name == "teardown"
        ]
        assert len(teardowns) == result.torn_down
        payload = recorder.chrome_trace()
        validate_chrome_trace(payload)
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(spans)
        assert {e["pid"] for e in xs} == {2}

    def test_span_tracing_only_observes(self):
        """The recorder may watch, never steer: with VBR renegotiation in
        the mix, every workload metric is the same with it off and on."""
        fields = (
            "arrivals", "established", "blocked", "torn_down", "setup_p50",
            "setup_p99", "setup_mean", "mean_delay_cycles",
            "mean_jitter_cycles", "flits_delivered", "renegotiations_applied",
            "renegotiations_refused", "teardown_retries", "links_searched",
            "backtracks", "drained", "leak_free",
        )
        point = dict(
            num_sessions=80,
            num_nodes=8,
            mean_interarrival_cycles=150.0,
            mean_holding_cycles=4000.0,
            vbr_fraction=0.4,
            renegotiation_fraction=0.5,
            seed=7,
        )
        off, on = (
            run_churn_experiment(ChurnSpec(telemetry=telemetry, **point))
            for telemetry in (False, True)
        )
        summary = [getattr(off, name) for name in fields]
        assert summary == [getattr(on, name) for name in fields]
        assert off.renegotiations_applied > 0 and off.drained and off.leak_free
        assert on.recorder.spans.open_count == 0

    def test_streaming_stats_track_exact_lists(self):
        exact = run_churn_experiment(small_spec(exact_setup_stats=True))
        streaming = run_churn_experiment(small_spec())
        assert exact.setup_latencies  # exact mode keeps the list
        assert streaming.setup_latencies == []  # streaming stays bounded
        # Workload metrics are identical; only the estimator differs.
        assert exact.established == streaming.established
        assert exact.setup_mean == pytest.approx(streaming.setup_mean)
        assert streaming.setup_p99 == pytest.approx(exact.setup_p99, rel=0.25)
        assert streaming.setup_p50 <= streaming.setup_p99

    def test_slo_pass_and_breach(self):
        passing = run_churn_experiment(
            small_spec(slos=("setup_p99=500", "blocking_probability=0.9"))
        )
        assert passing.slo_ok
        assert passing.slo_state and not passing.slo_violations
        breached = run_churn_experiment(small_spec(slos=("setup_p99=3",)))
        assert not breached.slo_ok
        assert breached.slo_breached
        (violation, *_rest) = breached.slo_violations
        assert violation["metric"] == "setup_p99"
        assert violation["session_id"] in breached.violating_sessions
        assert breached.violating_sessions

    def test_slo_violation_references_a_real_span(self):
        result = run_churn_experiment(
            small_spec(telemetry=True, slos=("setup_p99=3",))
        )
        (violation, *_rest) = result.slo_violations
        span = result.recorder.spans.get(violation["span_id"])
        assert span is not None and span.name == "setup"
        root = result.recorder.spans.root_of(span.span_id)
        assert root.args["session"] == violation["session_id"]

    def test_malformed_slo_fails_at_spec_build(self):
        with pytest.raises(ValueError):
            small_spec(slos=("setup_p99",))

    def test_health_snapshot_rides_on_result(self):
        result = run_churn_experiment(
            small_spec(telemetry=True, slos=("blocking_probability=0.95",))
        )
        health = result.health
        assert health["schema"] == "health/1"
        assert health["extra"]["arrivals"] == result.arrivals
        assert health["extra"]["established"] == result.established
        assert not health["slo_breached"]
        assert health["spans"]["open"] == 0

    def test_health_trail_written_during_run(self, tmp_path):
        path = tmp_path / "health.jsonl"
        result = run_churn_experiment(
            small_spec(telemetry=True), health_path=path, health_every=5000
        )
        trail = [__import__("json").loads(line)
                 for line in path.read_text().splitlines()]
        assert len(trail) >= 2  # heartbeats plus the final snapshot
        assert trail[-1]["extra"]["torn_down"] == result.torn_down
        cycles = [s["cycle"] for s in trail]
        assert cycles == sorted(cycles)
