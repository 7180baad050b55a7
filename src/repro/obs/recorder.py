"""The flight recorder: bounded, typed, zero-cost-when-disabled telemetry.

One :class:`FlightRecorder` serves a whole simulation (all routers share
it).  It owns three stores, each with fixed memory:

* a typed trace buffer of flit-lifecycle / connection / round events —
  compact tuples, no string formatting on the hot path; it is the
  router's only observation channel;
* a :class:`~repro.obs.timeseries.TelemetryHub` of ring-buffered time
  series, fed per round boundary by :meth:`sample_round` — link
  utilisation, CBR cycles consumed vs reserved, VBR permanent/excess
  grants, candidate-set sizes, VC occupancy, switch grants, fast-forward
  ratio;
* a :class:`~repro.obs.kernel.KernelProfiler` installed into the
  simulator while the recorder is enabled.

Every emission site is guarded by the ``enabled`` flag at the call site
(``if recorder.enabled: ...``), so a disabled recorder costs one
attribute read and branch per site and makes no calls
(``tests/test_hop_budget.py`` counts them).  :data:`NULL_RECORDER` is
the permanently disabled default routers hold when no recorder is wired
in.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from .kernel import KernelProfiler
from .manifest import build_manifest
from .spans import DEFAULT_SPAN_CAPACITY, SpanTracer
from .timeseries import TelemetryHub
from .trace_export import (
    CONN_CLOSE,
    CONN_OPEN,
    CUTTHROUGH,
    DELIVER,
    GRANT,
    INJECT,
    ROUND,
    TraceEvent,
    to_chrome_trace,
)

#: Default trace buffer capacity (events).  Six-int tuples: ~100 bytes
#: each, so the default bounds the buffer around 20 MB.
DEFAULT_TRACE_CAPACITY = 200_000


class FlightRecorder:
    """Router-wide observability: typed trace + windowed telemetry."""

    #: Class-level fallback so recorders unpickled from checkpoints that
    #: predate window-staleness tracking restore with a valid epoch.
    _stale_epoch = 0

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        telemetry_capacity: int = 1024,
        manifest: Optional[Mapping[str, Any]] = None,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.enabled = True
        self.capacity = capacity
        self.dropped = 0
        self.events: List[TraceEvent] = []
        self.telemetry = TelemetryHub(telemetry_capacity)
        #: Control-plane span tracer (session/setup/hop/teardown trees);
        #: emission sites guard on ``enabled`` like the flit trace.
        self.spans = SpanTracer(span_capacity)
        self.manifest: Dict[str, Any] = (
            dict(manifest) if manifest is not None else build_manifest()
        )
        self.profiler = KernelProfiler()
        self._sim = None
        # Per-router previous counter values for windowed deltas, plus
        # the staleness epoch: bumped while telemetry sampling is off so
        # windows whose stored epoch lags are re-baselined (not sampled)
        # at their first boundary after re-enable.
        self._windows: Dict[str, Dict[str, float]] = {}
        self._stale_epoch = 0
        self._last_kernel_sample = -1

    # ----- lifecycle ---------------------------------------------------------

    def attach(self, sim) -> None:
        """Bind to a simulator: installs the kernel profiler while enabled."""
        self._sim = sim
        if self.enabled:
            sim.set_profiler(self.profiler)

    def set_enabled(self, enabled: bool) -> None:
        """Turn recording on or off, including the kernel profiler."""
        self.enabled = enabled
        if self._sim is not None:
            self._sim.set_profiler(self.profiler if enabled else None)

    def clear(self) -> None:
        """Discard buffered events, telemetry and profile (warm-up reset)."""
        self.events.clear()
        self.dropped = 0
        self.telemetry.clear()
        self.spans.clear()
        self._windows.clear()
        self._last_kernel_sample = -1
        self.profiler = KernelProfiler()
        if self._sim is not None and self.enabled:
            self._sim.set_profiler(self.profiler)

    # ----- typed trace emission (call sites guard on .enabled) ---------------

    def _append(self, event: TraceEvent) -> None:
        events = self.events
        if len(events) >= self.capacity:
            self.dropped += 1
            return
        events.append(event)

    def flit_inject(
        self, time: int, port: int, vc: int, connection_id: int, flit_id: int
    ) -> None:
        """A flit entered an input virtual channel."""
        self._append((INJECT, time, port, vc, connection_id, flit_id))

    def flit_grant(
        self, time: int, port: int, vc: int, connection_id: int, flit_id: int
    ) -> None:
        """The switch scheduler granted this flit its crossbar slot."""
        self._append((GRANT, time, port, vc, connection_id, flit_id))

    def flit_deliver(
        self,
        time: int,
        output_port: int,
        delay_cycles: int,
        connection_id: int,
        flit_id: int,
    ) -> None:
        """A flit left through an output port after ``delay_cycles``."""
        self._append((DELIVER, time, output_port, delay_cycles, connection_id, flit_id))

    def cut_through(
        self,
        time: int,
        input_port: int,
        output_port: int,
        connection_id: int,
        flit_id: int,
    ) -> None:
        """A control flit bypassed synchronous scheduling (§3.4)."""
        self._append((CUTTHROUGH, time, input_port, output_port, connection_id, flit_id))

    def connection_open(
        self, time: int, connection_id: int, input_port: int, vc: int
    ) -> None:
        """A connection was admitted and bound to an input VC."""
        self._append((CONN_OPEN, time, input_port, vc, connection_id, -1))

    def connection_close(
        self, time: int, connection_id: int, input_port: int, vc: int
    ) -> None:
        """A connection was torn down."""
        self._append((CONN_CLOSE, time, input_port, vc, connection_id, -1))

    # ----- windowed telemetry -------------------------------------------------

    def sample(self, name: str, time: float, value: float) -> None:
        """Publish one sample into telemetry channel ``name``."""
        self.telemetry.sample(name, time, value)

    def sample_round(self, router, cycle: int, idle: bool = False) -> None:
        """Sample a router's per-round window at a round boundary.

        Called by the router *before* its link schedulers reset their
        round accounting, so CBR/VBR consumed-vs-reserved totals reflect
        the round being closed.  Robust to ``reset_statistics``: a window
        whose counters went backwards re-baselines instead of sampling.

        ``idle`` marks a boundary the router slept through, replayed
        later (see :meth:`Router.account_idle_cycles`): nothing was
        buffered then, whatever the buffers hold by now.  For the same
        reason ``kernel.fast_forward_ratio`` is the one series that
        depends on the kernel: it reads ``sim.now`` at sampling time.
        """
        self._append((ROUND, cycle, 0, 0, -1, -1))
        # Single-flag early-out: with channel sampling off, a round
        # boundary costs one boolean test (plus an int bump) instead of
        # walking every link scheduler's window counters.  The bump
        # invalidates every router's window baseline so a later
        # ``TelemetryHub.set_enabled(True)`` re-baselines per router
        # instead of lumping the whole disabled span into one delta.
        if not self.telemetry.enabled:
            self._stale_epoch += 1
            return
        scalars = router.stats.scalars
        cycles = scalars.get("cycles", 0.0)
        flits = scalars.get("flits_switched", 0.0)
        candidates = 0.0
        eligible = 0.0
        busy_cycles = 0.0
        vbr_permanent = 0.0
        vbr_excess = 0.0
        for scheduler in router.link_schedulers:
            candidates += scheduler.candidates_offered
            eligible += scheduler.eligible_vcs_total
            busy_cycles += scheduler.cycles_with_candidates
            vbr_permanent += scheduler.vbr_permanent_grants
            vbr_excess += scheduler.vbr_excess_grants
        switch = router.switch_scheduler
        grants = switch.grants_issued
        window = self._windows.get(router.name)
        if window is None:
            window = self._windows[router.name] = {}
        # This router's first boundary after a disabled span: refresh the
        # window baselines (the unconditional stores below) but emit
        # nothing, so the next sample's deltas cover exactly one round.
        stale = window.get("epoch", 0) != self._stale_epoch
        prev_cycles = window.get("cycles", 0.0)
        delta_cycles = cycles - prev_cycles
        if delta_cycles > 0 and not stale:
            prefix = router.name
            hub = self.telemetry
            num_ports = router.config.num_ports
            hub.sample(
                f"{prefix}.link_utilisation",
                cycle,
                (flits - window.get("flits", 0.0)) / (delta_cycles * num_ports),
            )
            delta_busy = busy_cycles - window.get("busy_cycles", 0.0)
            if delta_busy > 0:
                hub.sample(
                    f"{prefix}.candidate_set_size",
                    cycle,
                    (candidates - window.get("candidates", 0.0)) / delta_busy,
                )
                # Eligible set before candidate truncation — how much the
                # fused mask scan has to look at per busy cycle.
                hub.sample(
                    f"{prefix}.eligible_set_size",
                    cycle,
                    (eligible - window.get("eligible", 0.0)) / delta_busy,
                )
            hub.sample(
                f"{prefix}.vbr_permanent_grants",
                cycle,
                vbr_permanent - window.get("vbr_permanent", 0.0),
            )
            hub.sample(
                f"{prefix}.vbr_excess_grants",
                cycle,
                vbr_excess - window.get("vbr_excess", 0.0),
            )
            hub.sample(
                f"{prefix}.switch_grants",
                cycle,
                grants - window.get("grants", 0.0),
            )
            hub.sample(
                f"{prefix}.vc_occupancy",
                cycle,
                0 if idle else router.buffered_flits(),
            )
            consumed = 0.0
            reserved = 0.0
            for port in router.input_ports:
                for vc_index in port.status.vector("cbr_service_requested").indices():
                    vc = port.vcs[vc_index]
                    consumed += vc.serviced_this_round
                    reserved += vc.allocated_cycles
            hub.sample(f"{prefix}.cbr_cycles_consumed", cycle, consumed)
            hub.sample(f"{prefix}.cbr_cycles_reserved", cycle, reserved)
        window["epoch"] = self._stale_epoch
        window["cycles"] = cycles
        window["flits"] = flits
        window["candidates"] = candidates
        window["eligible"] = eligible
        window["busy_cycles"] = busy_cycles
        window["vbr_permanent"] = vbr_permanent
        window["vbr_excess"] = vbr_excess
        window["grants"] = grants
        # ``>``, not ``!=``: replayed boundaries arrive out of cycle order.
        if self._sim is not None and cycle > self._last_kernel_sample:
            self._last_kernel_sample = cycle
            sim = self._sim
            if sim.now > 0:
                self.telemetry.sample(
                    "kernel.fast_forward_ratio",
                    cycle,
                    sim.fast_forwarded_cycles / sim.now,
                )

    # ----- export -------------------------------------------------------------

    def kernel_snapshot(self) -> Dict[str, Any]:
        """The kernel profile, plus simulator totals when attached."""
        snapshot = self.profiler.snapshot()
        if self._sim is not None:
            snapshot["sim_now"] = self._sim.now
            snapshot["sim_fast_forwarded_cycles"] = self._sim.fast_forwarded_cycles
        return snapshot

    def chrome_trace(self, us_per_cycle: float = 1.0) -> Dict[str, Any]:
        """The buffered events + telemetry + spans as Chrome trace JSON.

        Control-plane spans ride on pid 2 alongside the flit lifecycle
        tracks, so one Perfetto load shows both planes on one timeline.
        """
        return to_chrome_trace(
            self.events,
            manifest=self.manifest,
            telemetry=self.telemetry.snapshot(),
            us_per_cycle=us_per_cycle,
            span_events=self.spans.to_trace_events(us_per_cycle),
        )

    def dropped_summary(self) -> Dict[str, Any]:
        """Where samples were lost: trace buffer, span store, each ring.

        ``channels`` only lists rings that actually dropped, so an empty
        dict there (and zero totals) certifies nothing was truncated.
        """
        channels = self.telemetry.dropped_by_channel()
        return {
            "trace": self.dropped,
            "spans": self.spans.dropped,
            "channels": channels,
            "total": self.dropped + self.spans.dropped + sum(channels.values()),
        }

    def summary(self) -> Dict[str, Any]:
        """The JSON-safe record minus the trace itself and the spans.

        What ``repro obs --json`` prints; :meth:`export` adds the rest,
        so the Chrome trace is only built when it is written.
        """
        return {
            "manifest": self.manifest,
            "telemetry": self.telemetry.snapshot(),
            "kernel": self.kernel_snapshot(),
            "trace_events": len(self.events),
            "trace_dropped": self.dropped,
            "dropped": self.dropped_summary(),
        }

    def export(self) -> Dict[str, Any]:
        """One self-describing JSON-safe record of everything recorded."""
        record = self.summary()
        record["trace"] = self.chrome_trace()
        record["spans"] = self.spans.to_dicts()
        record["span_count"] = len(self.spans)
        record["spans_open"] = self.spans.open_count
        record["spans_dropped"] = self.spans.dropped
        return record


class NullFlightRecorder(FlightRecorder):
    """Permanently disabled recorder: the router's default collaborator.

    ``enabled`` is False so guarded call sites never reach the methods;
    the methods are no-ops anyway so an unguarded (cold-path) call is
    still harmless and allocation-free.
    """

    def __init__(self) -> None:
        # An empty manifest: building one runs ``git`` and ``uname`` in
        # subprocesses, at import, for a recorder that never records.
        super().__init__(capacity=1, manifest={})
        self.enabled = False

    def set_enabled(self, enabled: bool) -> None:
        if enabled:
            raise RuntimeError(
                "NULL_RECORDER cannot be enabled; construct a FlightRecorder"
            )

    def _append(self, event: TraceEvent) -> None:
        pass

    def sample(self, name: str, time: float, value: float) -> None:
        pass

    def sample_round(self, router, cycle: int, idle: bool = False) -> None:
        pass

    def __reduce__(self):
        # Checkpoints must not clone the shared singleton: every router in
        # a restored graph should hold the same NULL_RECORDER the module
        # exports, exactly like a freshly built one.
        return (_null_recorder, ())


def _null_recorder() -> "NullFlightRecorder":
    return NULL_RECORDER


#: Shared disabled recorder (stateless — every router may hold it).
NULL_RECORDER = NullFlightRecorder()
