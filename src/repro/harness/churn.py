"""Open-loop session-churn workload over the probe protocol (§3.4-4.3).

The paper's evaluation establishes a connection population once and
measures steady-state QoS.  A multimedia router in service sees the
opposite regime: sessions arrive continuously (a Poisson process, with an
optional diurnal modulation), live for a while, sometimes renegotiate
their bandwidth mid-life (§4.3), and tear down — all through the real
probe/backtrack/ack control plane, while earlier sessions are still
streaming.  This harness drives that regime and measures what the
control plane does under churn:

* **setup latency** distribution (p50/p99 of probe+ack round trips),
* **blocking probability** (establishment attempts NACKed back out),
* **teardown/arrival balance** (does the network drain?),
* **in-flight QoS** (delay/jitter of flits delivered while the
  control plane churns around them), and
* a **resource-leak invariant**: after the last teardown, every router's
  admission registers, VC free lists and RAU mapping stores must match
  their pre-churn snapshot exactly.  Session setup and teardown walk the
  same per-hop allocate/release code in opposite directions; any
  asymmetry (a failure branch that forgets one side) shows up here as a
  drift that grows with churn.

Everything in the workload is picklable (bound-method events, no
closures), so long churn runs checkpoint and resume through the
checkpoint codec exactly like the other experiment classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from ..core.bandwidth import BandwidthRequest
from ..core.config import RouterConfig
from ..core.priority import make_priority_scheme
from ..core.virtual_channel import ServiceClass
from ..network.network import Network
from ..network.policing import TokenBucket
from ..network.probe_protocol import ProbeProtocol, ProbeSession
from ..network.topology import Topology, irregular
from ..obs import (
    DROPPED,
    FlightRecorder,
    HealthWriter,
    SloEngine,
    StreamingQuantiles,
    build_health_snapshot,
    parse_budgets,
)
from ..qos.metrics import UNCLASSIFIED, QosSummary, per_rate_breakdown, summarise
from ..sim.engine import Simulator
from ..sim.rng import SeededRng
from ..sim.stats import ConnectionStats
from ..traffic.cbr import CbrSource
from ..traffic.vbr import MpegProfile, VbrSource
from .resumable import Resumable

#: Cycles between teardown-guard retries while a session's in-flight
#: flits drain toward the destination.
TEARDOWN_RETRY_CYCLES = 64


@dataclass(frozen=True)
class ChurnSpec:
    """One churn-workload point (sweepable: every field is an axis)."""

    #: Total sessions the arrival process offers before stopping.
    num_sessions: int = 1000
    #: Mean Poisson inter-arrival gap between session requests (cycles).
    mean_interarrival_cycles: float = 400.0
    #: Mean exponential session lifetime (cycles).
    mean_holding_cycles: float = 20000.0
    #: Fraction of sessions that are VBR (MPEG) rather than CBR.
    vbr_fraction: float = 0.3
    #: Fraction of VBR sessions that renegotiate bandwidth mid-life.
    renegotiation_fraction: float = 0.25
    #: Sinusoidal arrival-rate modulation depth (0 disables; < 1).
    diurnal_amplitude: float = 0.0
    #: Period of the diurnal modulation (cycles).
    diurnal_period_cycles: float = 200_000.0
    num_nodes: int = 12
    mean_degree: float = 3.0
    priority: str = "biased"
    vcs_per_port: int = 64
    round_factor: int = 8
    #: Session rates drawn uniformly (paper's 5/20/55 Mbps mix).
    rates_bps: Tuple[float, ...] = (5e6, 20e6, 55e6)
    #: Synthetic MPEG frame rate.  The real 30 Hz puts ~323k cycles
    #: between frames at 1.24 Gbps — useless at churn holding times —
    #: so the default compresses the GOP clock while keeping per-frame
    #: burstiness (same trick the VBR unit tests use).
    vbr_frame_rate_hz: float = 3000.0
    #: Extra horizon after the expected last teardown for stragglers.
    drain_cycles: int = 100_000
    seed: int = 1
    telemetry: bool = False
    #: Telemetry sampling period (cycles), when ``telemetry`` is on.
    telemetry_every: int = 1000
    #: Police every session's injection with a per-session token bucket.
    police: bool = True
    #: Declarative SLO budgets (``metric=limit`` strings — e.g.
    #: ``setup_p99=400``, ``blocking_probability=0.05``; see
    #: :mod:`repro.obs.slo`).  Evaluated online during the run.
    slos: Tuple[str, ...] = ()
    #: Keep the exact per-session setup-latency list (O(sessions) memory)
    #: instead of the streaming quantile estimators.  For tests that need
    #: nearest-rank-exact percentiles; production churn stays bounded.
    exact_setup_stats: bool = False

    def __post_init__(self) -> None:
        if self.num_sessions < 1:
            raise ValueError(f"need at least 1 session, got {self.num_sessions}")
        if self.mean_interarrival_cycles <= 0:
            raise ValueError("mean_interarrival_cycles must be positive")
        if self.mean_holding_cycles <= 0:
            raise ValueError("mean_holding_cycles must be positive")
        if not 0.0 <= self.vbr_fraction <= 1.0:
            raise ValueError(f"vbr_fraction must be in [0,1], got {self.vbr_fraction}")
        if not 0.0 <= self.renegotiation_fraction <= 1.0:
            raise ValueError("renegotiation_fraction must be in [0,1]")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0,1), got {self.diurnal_amplitude}"
            )
        if self.diurnal_period_cycles <= 0:
            raise ValueError("diurnal_period_cycles must be positive")
        if self.num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.num_nodes}")
        if not self.rates_bps:
            raise ValueError("rates_bps must not be empty")
        if self.telemetry_every <= 0:
            raise ValueError("telemetry_every must be positive")
        parse_budgets(self.slos)  # malformed budgets fail at spec build

    @property
    def max_cycles(self) -> int:
        """Deterministic horizon covering arrivals, lifetimes and drain.

        Exponential draws are unbounded, so this is a generous bound (the
        run exits as soon as it drains); a run that is *not* drained by
        this horizon is stuck and reported as such.
        """
        arrivals = 3.0 * self.num_sessions * self.mean_interarrival_cycles
        # max of n exponential lifetimes ~ mean * ln(n); 20x is generous.
        lifetimes = 20.0 * self.mean_holding_cycles
        return int(arrivals + lifetimes + self.drain_cycles)


@dataclass
class _PendingSession:
    """Metadata drawn at arrival time, consumed at establishment."""

    rate_bps: float
    is_vbr: bool
    holding_cycles: int
    renegotiate: bool


@dataclass
class _ActiveSession:
    """One established session: its probe state and traffic machinery."""

    session: ProbeSession
    rate_bps: float
    is_vbr: bool
    holding_cycles: int
    source: Any  # CbrSource or VbrSource
    policer: Optional[TokenBucket]
    established_at: int
    #: Teardown-guard retries while this session's flits drained.
    drain_retries: int = 0


@dataclass
class ChurnResult:
    """Measured outcome of one churn run (picklable; sweep-friendly)."""

    spec: ChurnSpec
    arrivals: int
    established: int
    blocked: int
    torn_down: int
    teardown_retries: int
    renegotiations_applied: int
    renegotiations_refused: int
    setup_p50: float
    setup_p99: float
    setup_mean: float
    blocking_probability: float
    qos: QosSummary
    per_rate: Dict[object, QosSummary]
    unclassified_connections: int
    flits_delivered: int
    links_searched: int
    backtracks: int
    drained: bool
    #: Empty list = the resource-leak invariant holds.
    leak_report: List[str] = field(default_factory=list)
    recorder: Optional[FlightRecorder] = None
    checkpoint: Optional[Dict[str, Any]] = None
    #: Live budget state at run end (:meth:`SloEngine.state` shape).
    slo_state: List[Dict[str, Any]] = field(default_factory=list)
    #: Typed violation records (:meth:`SloViolation.to_dict` shape).
    slo_violations: List[Dict[str, Any]] = field(default_factory=list)
    #: Sticky: True once any declared budget ever crossed its limit.
    slo_breached: bool = False
    #: Distinct session ids named by violations, in breach order.
    violating_sessions: List[int] = field(default_factory=list)
    #: Final ``health/1`` snapshot (plain dict — survives the sweep
    #: worker's recorder strip, so rollups need no side-channel files).
    health: Optional[Dict[str, Any]] = None
    #: Per-session setup latencies, populated only under
    #: ``spec.exact_setup_stats`` (streaming runs keep memory bounded).
    setup_latencies: List[int] = field(default_factory=list)

    @property
    def leak_free(self) -> bool:
        """True when the post-drain resource audit found no drift."""
        return not self.leak_report

    @property
    def slo_ok(self) -> bool:
        """True when no declared budget ever tripped (vacuously true
        with no budgets declared)."""
        return not self.slo_breached

    @property
    def mean_delay_cycles(self) -> float:
        return self.qos.mean_delay_cycles

    @property
    def mean_jitter_cycles(self) -> float:
        return self.qos.mean_jitter_cycles


def _span_ref(span_id: int) -> int:
    """Span reference for an SLO violation: -1 when no span was recorded
    (telemetry off, or the tracer dropped it)."""
    return span_id if span_id != DROPPED else -1


def _percentile(sorted_values: List[int], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])


class ChurnWorkload(Resumable):
    """A resumable churn run: arrivals, lifetimes, renegotiation, drain."""

    KIND = "churn"
    MANIFEST_FIELDS = (
        "num_sessions", "mean_interarrival_cycles", "mean_holding_cycles", "num_nodes"
    )
    SPEC = ChurnSpec
    SWEEP_COLUMNS = (
        "blocking_probability", "setup_p50_cycles", "setup_p99_cycles",
        "mean_delay_cycles", "leak_free",
    )
    SUMMARY_FIELDS = {
        "arrivals": "arrivals",
        "established": "established",
        "blocked": "blocked",
        "torn_down": "torn_down",
        "blocking_probability": "blocking_probability",
        "setup_p50_cycles": "setup_p50",
        "setup_p99_cycles": "setup_p99",
        "setup_mean_cycles": "setup_mean",
        "mean_delay_cycles": "mean_delay_cycles",
        "mean_jitter_cycles": "mean_jitter_cycles",
        "flits_delivered": "flits_delivered",
        "renegotiations_applied": "renegotiations_applied",
        "renegotiations_refused": "renegotiations_refused",
        "teardown_retries": "teardown_retries",
        "links_searched": "links_searched",
        "backtracks": "backtracks",
        "unclassified_connections": "unclassified_connections",
        "drained": "drained",
        "leak_free": "leak_free",
        "slo_ok": "slo_ok",
        "slo_state": "slo_state",
        "slo_violations": "slo_violations",
        "violating_sessions": "violating_sessions",
    }
    #: Churn measures from cycle 0.
    warmup_cycles = 0

    def __init__(self, spec: ChurnSpec, topology: Optional[Topology] = None) -> None:
        rng = SeededRng(spec.seed, "churn")
        if topology is None:
            topology = irregular(
                spec.num_nodes, rng.spawn("topology"), mean_degree=spec.mean_degree
            )
        config = RouterConfig(
            num_ports=topology.num_ports,
            vcs_per_port=spec.vcs_per_port,
            round_factor=spec.round_factor,
            enforce_round_budgets=False,
        )
        sim = Simulator()
        recorder = self.build_recorder(spec, config)
        network = Network(
            topology,
            config,
            make_priority_scheme(spec.priority),
            sim,
            rng.spawn("network"),
            recorder=recorder,
        )
        self.spec = spec
        self.topology = topology
        self.config = config
        self.sim = sim
        self.recorder = recorder
        self.network = network
        self.protocol = ProbeProtocol(network)
        self._arrival_rng = rng.spawn("arrivals")
        self._session_rng = rng.spawn("sessions")

        # Churn accounting.
        self.arrivals_launched = 0
        self.blocked = 0
        self.established_total = 0
        self.torn_down = 0
        self.teardown_retries = 0
        self.links_searched = 0
        self.backtracks = 0
        #: Streaming setup-latency estimators (always fed — O(1) memory).
        self.setup_stats = StreamingQuantiles((0.5, 0.99))
        self._last_setup_cycles = 0.0
        #: Exact per-session list, only kept when spec.exact_setup_stats.
        self.setup_latencies: List[int] = []
        budgets = parse_budgets(spec.slos)
        #: Online SLO evaluation (None when no budgets are declared).
        self.slo: Optional[SloEngine] = SloEngine(budgets) if budgets else None
        #: Cumulative policer verdicts from torn-down sessions.
        self.policer_conforming = 0
        self.policer_violations = 0
        #: Periodic health-snapshot trail (see set_health_output).
        self.health_writer: Optional[HealthWriter] = None
        self.health_every = 0
        self._pending_meta: Dict[int, _PendingSession] = {}
        self.active: Dict[int, _ActiveSession] = {}
        #: End-to-end stats and delivered-flit counts per connection id.
        self.end_to_end: Dict[int, ConnectionStats] = {}
        self.delivered: Dict[int, int] = {}
        #: Admitted rate per connection id — feeds the per-rate QoS
        #: breakdown; an ``unclassified`` entry there means a session
        #: delivered flits this table never saw (a bookkeeping bug).
        self.connection_rates: Dict[int, float] = {}

        for node in range(topology.num_nodes):
            network.set_host_delivery(
                node, topology.host_port(node), self._on_delivery
            )
        #: Pre-churn resource audit baseline (allocators, VCs, RAU).
        self._baseline = self.resource_snapshot()
        sim.schedule(1, self._arrival)
        if recorder is not None:
            sim.schedule(spec.telemetry_every, self._sample_telemetry)

    # ----- arrival process -----------------------------------------------------

    def _arrival_gap(self) -> int:
        """Next Poisson gap, diurnally modulated when configured."""
        spec = self.spec
        gap = self._arrival_rng.expovariate(1.0 / spec.mean_interarrival_cycles)
        if spec.diurnal_amplitude > 0.0:
            factor = 1.0 + spec.diurnal_amplitude * math.sin(
                2.0 * math.pi * self.sim.now / spec.diurnal_period_cycles
            )
            gap /= factor
        return max(1, round(gap))

    def _arrival(self) -> None:
        """One session request arrives (open loop: the next arrival is
        scheduled regardless of this one's fate)."""
        spec = self.spec
        self.arrivals_launched += 1
        if self.arrivals_launched < spec.num_sessions:
            self.sim.schedule(self._arrival_gap(), self._arrival)
        rng = self._session_rng
        num_nodes = self.topology.num_nodes
        source = rng.randint(0, num_nodes - 1)
        destination = rng.randint(0, num_nodes - 2)
        if destination >= source:
            destination += 1
        rate = rng.choice(spec.rates_bps)
        is_vbr = rng.random() < spec.vbr_fraction
        holding = max(1, round(rng.expovariate(1.0 / spec.mean_holding_cycles)))
        renegotiate = is_vbr and rng.random() < spec.renegotiation_fraction
        config = self.config
        interarrival = config.rate_to_interarrival_cycles(rate)
        if is_vbr:
            profile = self._profile(rate)
            permanent = config.rate_to_cycles_per_round(rate)
            peak = config.rate_to_cycles_per_round(profile.peak_rate_bps(2.0))
            request = BandwidthRequest(permanent, max(peak, permanent))
            service_class = ServiceClass.VBR
        else:
            request = BandwidthRequest(config.rate_to_cycles_per_round(rate))
            service_class = ServiceClass.CBR
        session = self.protocol.establish(
            source,
            destination,
            request,
            self._on_establish,
            service_class=service_class,
            interarrival_cycles=interarrival,
        )
        self._pending_meta[session.session_id] = _PendingSession(
            rate_bps=rate,
            is_vbr=is_vbr,
            holding_cycles=holding,
            renegotiate=renegotiate,
        )

    def _profile(self, rate_bps: float) -> MpegProfile:
        return MpegProfile(
            mean_rate_bps=rate_bps, frame_rate_hz=self.spec.vbr_frame_rate_hz
        )

    # ----- establishment completion --------------------------------------------

    def _on_establish(self, session: ProbeSession, established: bool) -> None:
        meta = self._pending_meta.pop(session.session_id)
        self.links_searched += session.links_searched
        self.backtracks += session.backtracks
        now = self.sim.now
        slo = self.slo
        if not established:
            self.blocked += 1
            if slo is not None:
                slo.observe_ratio(
                    "blocking_probability",
                    self.blocked,
                    self._attempts_completed,
                    now,
                    session_id=session.session_id,
                    span_id=_span_ref(session.span_id),
                )
            self.protocol.forget(session)
            return
        self.established_total += 1
        setup = session.setup_cycles
        self._last_setup_cycles = float(setup)
        self.setup_stats.add(float(setup))
        if self.spec.exact_setup_stats:
            self.setup_latencies.append(setup)
        if slo is not None:
            slo.observe(
                "setup",
                float(setup),
                now,
                session_id=session.session_id,
                span_id=_span_ref(session.setup_span),
            )
            slo.observe_ratio(
                "blocking_probability",
                self.blocked,
                self._attempts_completed,
                now,
                session_id=session.session_id,
                span_id=_span_ref(session.span_id),
            )
        connection_id = -session.session_id
        self.connection_rates[connection_id] = meta.rate_bps
        config = self.config
        router = self.network.routers[session.source]
        entry_port = session.entry_ports[0]
        vc_index = session.vcs[0]
        interarrival = config.rate_to_interarrival_cycles(meta.rate_bps)
        stop_time = self.sim.now + meta.holding_cycles
        policer = None
        if meta.is_vbr:
            profile = self._profile(meta.rate_bps)
            if self.spec.police:
                # VBR polices at the contracted peak with a frame of burst
                # headroom, or frame bursts would be shaped flat.
                peak_bps = profile.peak_rate_bps(2.0)
                burst = max(2.0, peak_bps / profile.frame_rate_hz / config.flit_size_bits)
                policer = TokenBucket(
                    1.0 / config.rate_to_interarrival_cycles(peak_bps), burst=burst
                )
            source = VbrSource(
                self.sim,
                router,
                connection_id,
                entry_port,
                vc_index,
                profile,
                config,
                self._session_rng.spawn(f"vbr{session.session_id}"),
                phase=self._session_rng.uniform(1.0, max(2.0, interarrival)),
                stop_time=stop_time,
                policer=policer,
            )
        else:
            if self.spec.police:
                policer = TokenBucket(1.0 / interarrival, burst=2.0)
            source = CbrSource(
                self.sim,
                router,
                connection_id,
                entry_port,
                vc_index,
                meta.rate_bps,
                config,
                phase=self._session_rng.uniform(1.0, max(2.0, interarrival)),
                stop_time=stop_time,
                policer=policer,
            )
        source.start()
        self.active[session.session_id] = _ActiveSession(
            session=session,
            rate_bps=meta.rate_bps,
            is_vbr=meta.is_vbr,
            holding_cycles=meta.holding_cycles,
            source=source,
            policer=policer,
            established_at=self.sim.now,
        )
        if meta.renegotiate:
            self.sim.schedule(
                max(1, meta.holding_cycles // 2),
                self._renegotiate_event,
                session.session_id,
            )
        self.sim.schedule(
            max(1, meta.holding_cycles), self._teardown_event, session.session_id
        )

    # ----- mid-life renegotiation (§4.3) -----------------------------------------

    def _renegotiate_event(self, session_id: int) -> None:
        """Halfway through its life, a marked VBR session renegotiates —
        down to half or up to 1.5x its permanent contract (up may be
        NACKed by any hop; the protocol rolls back)."""
        entry = self.active.get(session_id)
        if entry is None:
            return  # already torn down (short lifetime)
        config = self.config
        factor = 0.5 if self._session_rng.random() < 0.5 else 1.5
        new_rate = entry.rate_bps * factor
        permanent = max(1, config.rate_to_cycles_per_round(new_rate))
        old_request = entry.session.request
        new_request = BandwidthRequest(
            permanent, max(old_request.effective_peak, permanent)
        )
        ok = self.protocol.renegotiate(
            entry.session,
            new_request,
            interarrival_cycles=config.rate_to_interarrival_cycles(new_rate),
        )
        if ok and entry.policer is not None:
            # Reprice the injection policer at the renegotiation instant
            # (tokens accrued so far are settled at the old rate first).
            entry.policer.set_rate(entry.policer.rate * factor, now=self.sim.now)

    # ----- teardown --------------------------------------------------------------

    def _teardown_event(self, session_id: int) -> None:
        """The session's lifetime expired; tear down once it has drained.

        A VC with buffered flits must not be released (the router raises),
        so teardown waits until the source interface queue is empty and
        every injected flit was delivered, retrying on a short timer.
        """
        entry = self.active.get(session_id)
        if entry is None:
            return
        connection_id = -session_id
        source = entry.source
        recorder = self.recorder
        if source.backlog > 0 or self.delivered.get(connection_id, 0) < source.flits_injected:
            self.teardown_retries += 1
            entry.drain_retries += 1
            if recorder is not None and recorder.enabled:
                # The drain window is a span of its own: it is wall time
                # the session spends past its lifetime, invisible in the
                # per-hop teardown spans.
                if not entry.session.drain_span:
                    entry.session.drain_span = recorder.spans.begin(
                        "drain",
                        "teardown",
                        self.sim.now,
                        parent=entry.session.span_id,
                        session=session_id,
                    )
            self.sim.schedule(
                TEARDOWN_RETRY_CYCLES, self._teardown_event, session_id
            )
            return
        if entry.session.drain_span and recorder is not None:
            recorder.spans.end(
                entry.session.drain_span,
                self.sim.now,
                retries=entry.drain_retries,
            )
        self.protocol.teardown(entry.session, self._on_teardown)

    def _on_teardown(self, session: ProbeSession, _established: bool) -> None:
        entry = self.active.pop(session.session_id, None)
        self.torn_down += 1
        if entry is not None and entry.policer is not None:
            self.policer_conforming += entry.policer.conforming
            self.policer_violations += entry.policer.violations
        stats = self.end_to_end.get(-session.session_id)
        if stats is not None:
            # Every flit was delivered before the teardown started: fold
            # the session's last samples rather than hold them to the end.
            stats.fold()
        slo = self.slo
        if slo is not None:
            now = self.sim.now
            if stats is not None and stats.jitter.count:
                slo.observe(
                    "jitter",
                    stats.jitter.mean,
                    now,
                    session_id=session.session_id,
                    span_id=_span_ref(session.span_id),
                )
            refusals = self.policer_violations
            verdicts = self.policer_conforming + refusals
            slo.observe_ratio(
                "policer_refusal_rate",
                refusals,
                verdicts,
                now,
                session_id=session.session_id,
                span_id=_span_ref(session.span_id),
            )
        self.protocol.forget(session)

    # ----- delivery and telemetry --------------------------------------------------

    def _on_delivery(self, node: int, port: int, flit) -> None:
        latency = self.sim.now - flit.created
        stats = self.end_to_end.get(flit.connection_id)
        if stats is None:
            stats = self.end_to_end[flit.connection_id] = ConnectionStats()
        stats.record_flit(latency)
        self.delivered[flit.connection_id] = (
            self.delivered.get(flit.connection_id, 0) + 1
        )

    @property
    def _attempts_completed(self) -> int:
        return self.established_total + self.blocked

    def _sample_telemetry(self) -> None:
        recorder = self.recorder
        if recorder is None:
            return
        now = self.sim.now
        recorder.sample("churn.active_sessions", now, float(len(self.active)))
        attempts = self._attempts_completed
        recorder.sample(
            "churn.blocking_rate",
            now,
            self.blocked / attempts if attempts else 0.0,
        )
        if self.setup_stats.count:
            recorder.sample(
                "churn.setup_latency_last", now, self._last_setup_cycles
            )
            recorder.sample(
                "churn.setup_latency_p99", now, self.setup_quantile(0.99)
            )
        if not self.drained:
            self.sim.schedule(self.spec.telemetry_every, self._sample_telemetry)

    # ----- run health -------------------------------------------------------------

    def set_health_output(self, path, every: int = 5000) -> None:
        """Append a ``health/1`` snapshot to ``path`` every ``every`` cycles.

        Safe to call on a resumed workload: the writer is swapped (e.g.
        for a new path) without double-scheduling the heartbeat event,
        which already rides in the checkpointed event queue.
        """
        if every <= 0:
            raise ValueError(f"health interval must be positive, got {every}")
        schedule = self.health_writer is None
        self.health_writer = HealthWriter(path)
        self.health_every = every
        if schedule:
            self.sim.schedule(every, self._health_event)

    def _health_event(self) -> None:
        writer = self.health_writer
        if writer is None:
            return
        writer.write(self.health_snapshot())
        if not self.drained:
            self.sim.schedule(self.health_every, self._health_event)

    def health_snapshot(self) -> Dict[str, Any]:
        """One ``health/1`` record of the run's current observable state."""
        attempts = self._attempts_completed
        return build_health_snapshot(
            self.sim.now,
            recorder=self.recorder,
            slo=self.slo,
            extra={
                "active_sessions": len(self.active),
                "arrivals": self.arrivals_launched,
                "established": self.established_total,
                "blocked": self.blocked,
                "torn_down": self.torn_down,
                "blocking_probability": (
                    self.blocked / attempts if attempts else 0.0
                ),
                "setup_p50": self.setup_quantile(0.50),
                "setup_p99": self.setup_quantile(0.99),
            },
        )

    def setup_quantile(self, q: float) -> float:
        """Setup-latency quantile: nearest-rank exact when the spec keeps
        the full list, streaming (P²) estimate otherwise."""
        if self.spec.exact_setup_stats:
            return _percentile(sorted(self.setup_latencies), q)
        return self.setup_stats.quantile(q)

    # ----- resource-leak invariant ---------------------------------------------------

    def resource_snapshot(self) -> Dict[str, Tuple]:
        """Every per-router register churn must return to baseline:
        admission allocators (both directions), VC free lists, RAU
        mapping stores."""
        snapshot: Dict[str, Tuple] = {}
        for node in range(self.topology.num_nodes):
            router = self.network.routers[node]
            for port in range(self.config.num_ports):
                inp = router.admission.inputs[port]
                out = router.admission.outputs[port]
                snapshot[f"router{node}.port{port}.admission"] = (
                    inp.allocated_cycles,
                    inp.peak_cycles,
                    inp.active_connections,
                    out.allocated_cycles,
                    out.peak_cycles,
                    out.active_connections,
                )
                snapshot[f"router{node}.port{port}.free_vcs"] = (
                    router.input_ports[port].free_vc_count(),
                )
            snapshot[f"router{node}.rau_mappings"] = (len(router.rau.mappings),)
        return snapshot

    def verify_drained(self) -> List[str]:
        """Audit the drained network against the pre-churn baseline.

        Returns human-readable drift descriptions (empty = invariant
        holds).  Only meaningful once :attr:`drained` is True.
        """
        problems: List[str] = []
        current = self.resource_snapshot()
        for key, expected in self._baseline.items():
            got = current.get(key)
            if got != expected:
                problems.append(f"{key}: baseline {expected} != post-churn {got}")
        if self.active:
            problems.append(f"{len(self.active)} session(s) still active")
        if self._pending_meta:
            problems.append(
                f"{len(self._pending_meta)} establishment(s) still pending"
            )
        if self.protocol.sessions:
            problems.append(
                f"{len(self.protocol.sessions)} session(s) not forgotten"
            )
        return problems

    # ----- progress --------------------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """Deterministic upper-bound horizon (see ChurnSpec.max_cycles)."""
        return self.spec.max_cycles

    @property
    def done(self) -> bool:
        """Drained, or stuck at the horizon."""
        return self.drained or self.sim.now >= self.total_cycles

    @property
    def drained(self) -> bool:
        """All arrivals offered, no establishment in flight, no session
        alive (established sessions are removed at teardown completion)."""
        return (
            self.arrivals_launched >= self.spec.num_sessions
            and not self._pending_meta
            and not self.active
        )

    def run_until_drained(self, stride: int = 50_000) -> None:
        """Advance in strides until drained (or the horizon is hit)."""
        while not self.done:
            self.run_to(min(self.sim.now + stride, self.total_cycles))

    def result(self) -> ChurnResult:
        """Summarise the run; drives it to drain first if needed."""
        self.run_until_drained()
        attempts = self._attempts_completed
        per_rate = per_rate_breakdown(self.end_to_end, self.connection_rates)
        unclassified = per_rate.get(UNCLASSIFIED)
        drained = self.drained
        slo = self.slo
        health = self.health_snapshot()
        if self.health_writer is not None:
            # The trail always ends with the run's final state.
            self.health_writer.write(health)
        return ChurnResult(
            spec=self.spec,
            arrivals=self.arrivals_launched,
            established=self.established_total,
            blocked=self.blocked,
            torn_down=self.torn_down,
            teardown_retries=self.teardown_retries,
            renegotiations_applied=self.protocol.renegotiations_applied,
            renegotiations_refused=self.protocol.renegotiations_refused,
            setup_p50=self.setup_quantile(0.50),
            setup_p99=self.setup_quantile(0.99),
            setup_mean=self.setup_stats.mean,
            blocking_probability=self.blocked / attempts if attempts else 0.0,
            qos=summarise(self.end_to_end),
            per_rate=per_rate,
            unclassified_connections=(
                unclassified.connections if unclassified is not None else 0
            ),
            flits_delivered=sum(self.delivered.values()),
            links_searched=self.links_searched,
            backtracks=self.backtracks,
            drained=drained,
            leak_report=(
                self.verify_drained()
                if drained
                else [f"not drained by cycle {self.sim.now}"]
            ),
            recorder=self.recorder,
            slo_state=slo.state() if slo is not None else [],
            slo_violations=slo.violation_dicts() if slo is not None else [],
            slo_breached=bool(slo.breached) if slo is not None else False,
            violating_sessions=(
                slo.violating_sessions() if slo is not None else []
            ),
            health=health,
            setup_latencies=list(self.setup_latencies),
        )

    def close(self) -> None:
        self.network.close()

    def checkpoint_extra(self) -> Dict[str, Any]:
        return {
            **self.manifest_fields(self.spec),
            "arrivals_launched": self.arrivals_launched,
            "established": self.established_total,
            "torn_down": self.torn_down,
            "active": len(self.active),
        }


def run_churn_experiment(
    spec: ChurnSpec,
    topology: Optional[Topology] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path=None,
    resume: bool = False,
    health_path=None,
    health_every: int = 5000,
    _crash_at_cycle: Optional[int] = None,
) -> ChurnResult:
    """Run one churn point, optionally checkpointed.

    The keyword protocol matches :func:`run_single_router_experiment`, so
    churn sweeps go through :func:`repro.harness.sweep.run_sweep` with
    ``_runner=run_churn_experiment`` — including ``--jobs`` fan-out and
    checkpoint-resumable points with bit-identical rows either way.  The
    checkpoint arguments are those of
    :meth:`~repro.harness.resumable.Resumable.run`.  ``health_path``
    turns on the periodic health-snapshot trail.
    """
    prepare = None
    if health_path is not None:
        prepare = partial(
            ChurnWorkload.set_health_output, path=health_path, every=health_every
        )
    return ChurnWorkload.run(
        spec,
        topology,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume=resume,
        crash_at_cycle=_crash_at_cycle,
        prepare=prepare,
    )
