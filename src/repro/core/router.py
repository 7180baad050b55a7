"""The MMR router top level (paper Figure 1).

A :class:`Router` assembles the architecture of Figure 1: per-input-port
virtual channel memories and link schedulers, a multiplexed crossbar, the
switch scheduler, the routing-and-arbitration unit, per-output credit
flow control and bandwidth-allocation registers.

Operation follows §3.4: flit transmission is organised as synchronous flit
cycles.  During each cycle the link schedulers offer candidate sets, the
switch scheduler computes the next matching, the crossbar is reconfigured
and one flit per granted port crosses the switch.  Control packets
(probes, acks, control words) cut through asynchronously when their output
link is idle; otherwise they are buffered in a virtual channel and
scheduled synchronously with data, above data-stream priority.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from ..obs.recorder import NULL_RECORDER
from ..sim.engine import Simulator
from ..sim.stats import ConnectionStats, Histogram, StatsRegistry
from ..sim.trace import NullTracer
from .admission import AdmissionController
from .bandwidth import BandwidthRequest
from .config import RouterConfig
from .crossbar import MultiplexedCrossbar, PerfectSwitch
from .flit import IMMEDIATE_TYPES, Flit, FlitType
from .flow_control import LinkFlowControl
from .link_scheduler import LinkScheduler
from .priority import PriorityScheme
from .rau import RoutingArbitrationUnit
from .status_vectors import ActivitySet, StatusBank
from .switch_scheduler import (
    Grant,
    PerfectSwitchScheduler,
    SwitchScheduler,
    validate_grants,
)
from .virtual_channel import ServiceClass, VirtualChannel

# Service classes whose packets release their VC at the tail flit (§3.4),
# and the flit type of connection payload; module constants so the per-flit
# path compares by identity instead of hashing an ``Enum`` member.
_CONTROL = ServiceClass.CONTROL
_BEST_EFFORT = ServiceClass.BEST_EFFORT
_DATA = FlitType.DATA

# Handler invoked when a flit leaves through an output port:
# handler(flit, output_vc).  None means the port drains to a sink.
OutputHandler = Callable[[Flit, int], None]
# Handler invoked when an input VC frees a buffer slot (credit return):
# handler(vc_index).
CreditReturnHandler = Callable[[int], None]


class InputPort:
    """One physical input link: its virtual channels and status bank."""

    def __init__(self, port: int, config: RouterConfig) -> None:
        self.port = port
        self.vcs: List[VirtualChannel] = [
            VirtualChannel(port, index, config.vc_buffer_flits)
            for index in range(config.vcs_per_port)
        ]
        self.status = StatusBank(config.vcs_per_port)
        # Free pool as a bit mask: bit i set = VC i unbound.
        self._free_vcs = (1 << config.vcs_per_port) - 1

    def find_free_vc(self) -> Optional[int]:
        """Lowest-numbered free virtual channel, or None."""
        free = self._free_vcs
        return (free & -free).bit_length() - 1 if free else None

    def free_vc_count(self) -> int:
        """How many VCs are unbound."""
        return self._free_vcs.bit_count()

    def mark_bound(self, vc_index: int) -> None:
        """Remove a VC from the free pool (it was just bound)."""
        self._free_vcs &= ~(1 << vc_index)

    def mark_free(self, vc_index: int) -> None:
        """Return a VC to the free pool."""
        self._free_vcs |= 1 << vc_index


class _CreditListener:
    """Mirrors one output link's 0<->1 credit transitions into the input
    ports' ``credits_available`` status vectors.

    A class (rather than a closure over the router's dict and vector
    list) so routers are picklable for checkpointing; it shares the
    router's live ``_downstream_users`` dict and vector list by
    reference, which pickle preserves within one snapshot.
    """

    __slots__ = ("users", "vectors", "output_port")

    def __init__(self, users: Dict[tuple, tuple], vectors: list, output_port: int) -> None:
        self.users = users
        self.vectors = vectors
        self.output_port = output_port

    def __call__(self, output_vc: int, available: bool) -> None:
        user = self.users.get((self.output_port, output_vc))
        if user is not None:
            self.vectors[user[0]].assign(user[1], available)


class Router:
    """A single MMR router instance driven by a shared simulator clock."""

    def __init__(
        self,
        config: RouterConfig,
        scheme: PriorityScheme,
        switch_scheduler: SwitchScheduler,
        sim: Simulator,
        name: str = "router",
        selection: str = "priority",
        rng=None,
        sink_outputs: bool = True,
        checked: bool = False,
        tracer=None,
        delay_histogram_bins: int = 0,
        recorder=None,
    ) -> None:
        """``sink_outputs=True`` models the single-router evaluation: output
        links drain into ideal sinks with unlimited downstream credit.  A
        network embeds the router with ``sink_outputs=False`` and wires
        output handlers and real credit state per link."""
        self.config = config
        self.scheme = scheme
        self.switch_scheduler = switch_scheduler
        self.sim = sim
        self.name = name
        self.checked = checked
        self.tracer = tracer if tracer is not None else NullTracer()
        #: Flight recorder (see :mod:`repro.obs.recorder`).  Every hot-path
        #: emission guards on ``recorder.enabled`` so the default
        #: NULL_RECORDER costs one attribute read per site.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._delay_histogram_bins = delay_histogram_bins

        self.input_ports = [InputPort(p, config) for p in range(config.num_ports)]
        self.output_flow = [
            LinkFlowControl(
                config.vcs_per_port, config.vc_buffer_flits, infinite=sink_outputs
            )
            for _ in range(config.num_ports)
        ]
        self.link_schedulers = [
            LinkScheduler(
                port,
                config,
                self.input_ports[port].vcs,
                self.input_ports[port].status,
                scheme,
                self._credit_check,
                selection=selection,
                rng=rng.spawn(f"link{port}") if rng is not None else None,
            )
            for port in range(config.num_ports)
        ]
        # Fast-path credit mirroring: each (output_port, output_vc) in use
        # maps to the single input VC bound to it; the output links'
        # availability listeners push downstream 0<->1 credit transitions
        # into that VC's ``credits_available`` status bit.
        self._downstream_users: Dict[tuple, tuple] = {}
        self._credits_vectors = [
            port.status.vector("credits_available") for port in self.input_ports
        ]
        self._routed_vectors = [
            port.status.vector("routed") for port in self.input_ports
        ]
        for output_port, flow in enumerate(self.output_flow):
            flow.availability_listener = self._make_credit_listener(output_port)
        perfect = isinstance(switch_scheduler, PerfectSwitchScheduler)
        self.crossbar = (
            PerfectSwitch(config.num_ports)
            if perfect
            else MultiplexedCrossbar(config.num_ports)
        )
        self.rau = RoutingArbitrationUnit(config.num_ports)
        self.admission = AdmissionController(config)
        self._reset_sink_statistics()
        self.connection_stats: Dict[int, ConnectionStats] = {}
        self.output_handlers: List[Optional[OutputHandler]] = [None] * config.num_ports
        self.credit_return_handlers: List[Optional[CreditReturnHandler]] = (
            [None] * config.num_ports
        )
        # Outputs/inputs consumed by asynchronous VCT cut-through during the
        # current flit cycle (§3.4): busy for the next arbitration.
        self._immediate_busy_outputs = set()
        # Activity published to the kernel: one bit per input port (flits
        # buffered), one for a cut-through in flight, one while the
        # crossbar still holds a configuration (it must be torn down by a
        # tick before the router can go idle).
        self._act_immediate = config.num_ports
        self._act_crossbar = config.num_ports + 1
        self.activity = ActivitySet(config.num_ports + 2)
        self._flits_available = [
            port.status.vector("flits_available") for port in self.input_ports
        ]
        self._input_buffer_full = [
            port.status.vector("input_buffer_full") for port in self.input_ports
        ]
        # Hot-path caches: the tick/transmit/deliver pipeline runs hundreds
        # of thousands of times per experiment.
        self._round_length = config.round_length
        self._port_mask = (1 << config.num_ports) - 1
        #: Flits sent per output port: all a transit hop records (§7h).
        self.output_flits = [0] * config.num_ports
        self._ticker = self.sim.add_ticker(
            self.tick,
            activity=self.activity,
            on_skip=self.account_idle_cycles,
            name=name,
        )

    # ----- wiring ------------------------------------------------------------

    def set_output_handler(self, port: int, handler: OutputHandler) -> None:
        """Connect output ``port`` to a downstream consumer."""
        self.output_handlers[port] = handler

    def set_credit_return_handler(self, port: int, handler: CreditReturnHandler) -> None:
        """Register the upstream credit-return path for input ``port``."""
        self.credit_return_handlers[port] = handler

    def _credit_check(self, output_port: int, output_vc: int) -> bool:
        if output_vc < 0:
            # Sink binding (single-router mode): always room downstream.
            return True
        return self.output_flow[output_port].has_credit(output_vc)

    def _make_credit_listener(self, output_port: int) -> "_CreditListener":
        return _CreditListener(
            self._downstream_users, self._credits_vectors, output_port
        )

    def catch_up(self) -> None:
        """Account this router's deferred idle cycles up to now.

        The kernel replays a sleeping router's idle span in one piece when
        it wakes (see :mod:`repro.sim.engine`), and the replay — round
        boundaries, a live recorder's per-round samples — must see the
        state those cycles ran under.  Every control-plane entry point
        below therefore calls this before changing VC bindings, contracts
        or statistics; code that rewrites VC state from outside them (the
        probe protocol's ack installation) must do the same.  A no-op
        while the router is being stepped.
        """
        self.sim.catch_up(self._ticker)

    def invalidate_priority_cache(self, input_port: int, vc_index: int) -> None:
        """Drop one VC's cached priority terms.

        Must be called after mutating any input of the priority
        computation outside the router's own APIs — e.g. the connection
        manager rewriting ``static_priority`` or a bandwidth
        renegotiation rewriting ``interarrival_cycles`` while a head
        flit sits parked on the VC.  Without it the candidate scan
        keeps serving the stale terms until the head flit drains.
        """
        vc = self.input_ports[input_port].vcs[vc_index]
        self.link_schedulers[input_port].invalidate_vc(vc)

    # ----- route state (scan vector maintenance) ----------------------------

    def _register_route_state(
        self, input_port: int, vc_index: int, output_port: int, output_vc: int
    ) -> None:
        """Mirror a VC's freshly resolved route into the status vectors."""
        if output_port < 0:
            return
        self._routed_vectors[input_port].set(vc_index)
        if output_vc >= 0:
            key = (output_port, output_vc)
            if key in self._downstream_users:
                raise RuntimeError(
                    f"{self.name}: downstream vc {output_port}.{output_vc} "
                    f"already driven by input vc "
                    f"{self._downstream_users[key][0]}."
                    f"{self._downstream_users[key][1]}"
                )
            self._downstream_users[key] = (input_port, vc_index)
            self._credits_vectors[input_port].assign(
                vc_index, self.output_flow[output_port].has_credit(output_vc)
            )
        else:
            # Sink binding: downstream credit can never block.
            self._credits_vectors[input_port].set(vc_index)

    def _release_route_state(self, vc: VirtualChannel) -> None:
        """Drop a VC's route mirroring (teardown or re-route)."""
        input_port = vc.port
        self._routed_vectors[input_port].clear(vc.index)
        # Unbound/unrouted VCs park with credits available (the vector's
        # idle default), so a future binding starts from a known state.
        self._credits_vectors[input_port].set(vc.index)
        if vc.output_port >= 0 and vc.output_vc >= 0:
            self._downstream_users.pop((vc.output_port, vc.output_vc), None)

    def scrub_vc_scheduling_state(self, input_port: int, vc_index: int) -> None:
        """Reset a VC's scheduling bits ahead of its release.

        Must run while the VC still holds its route (the downstream-user
        map is keyed by it).  Clears the routed/credits mirroring and the
        per-round serviced/exhausted bits so a future occupant of the VC
        inherits nothing — a stale ``round_budget_exhausted`` bit would
        silently mask the next connection until a round boundary.
        """
        self.catch_up()
        port = self.input_ports[input_port]
        vc = port.vcs[vc_index]
        self._release_route_state(vc)
        status = port.status
        status.vector("cbr_bandwidth_serviced").clear(vc_index)
        status.vector("vbr_bandwidth_serviced").clear(vc_index)
        status.vector("round_budget_exhausted").clear(vc_index)
        self.link_schedulers[input_port].invalidate_vc(vc)

    def assign_route(
        self, input_port: int, vc_index: int, output_port: int, output_vc: int = -1
    ) -> None:
        """Resolve (or change) the route of an already-bound VC.

        The only supported way to set ``vc.output_port``/``vc.output_vc``
        after binding: it keeps the ``routed`` and ``credits_available``
        status vectors and the downstream-user map in sync, which the
        candidate scan depends on.  Used by best-effort routing
        (a blocked packet routed once a downstream VC frees up, §3.4) and
        by probe-driven connection establishment (§3.5).
        """
        self.catch_up()
        vc = self.input_ports[input_port].vcs[vc_index]
        if vc.connection_id is None:
            raise RuntimeError(
                f"{self.name}: cannot route unbound VC {input_port}.{vc_index}"
            )
        if vc.output_port >= 0 or vc.output_vc >= 0:
            self._release_route_state(vc)
        vc.output_port = output_port
        vc.output_vc = output_vc
        self._register_route_state(input_port, vc_index, output_port, output_vc)
        # Route context feeds the cached priority terms (class offsets,
        # interarrival) — invalidate so the next scan recomputes.
        self.link_schedulers[input_port].invalidate_vc(vc)

    # ----- connection management ------------------------------------------------

    def open_connection(
        self,
        connection_id: int,
        input_port: int,
        output_port: int,
        request: BandwidthRequest,
        service_class: ServiceClass = ServiceClass.CBR,
        interarrival_cycles: float = 1.0,
        static_priority: float = 0.0,
        output_vc: int = -1,
    ) -> Optional[int]:
        """Admit and install a connection through this router.

        Returns the reserved input VC index, or None when admission fails
        (bandwidth exhausted or no free VC).  This is the local slice of
        PCS establishment; multi-hop establishment drives it per router
        (see :mod:`repro.network.connection`).
        """
        self.catch_up()
        port = self.input_ports[input_port]
        vc_index = port.find_free_vc()
        decision = self.admission.admit(
            input_port, output_port, request, input_vc_free=vc_index is not None
        )
        if not decision:
            self.stats.counter("connections_refused")
            return None
        vc = port.vcs[vc_index]
        vc.bind(connection_id, service_class, output_port, output_vc)
        vc.interarrival_cycles = interarrival_cycles
        vc.static_priority = static_priority
        if service_class is ServiceClass.CBR:
            vc.allocated_cycles = request.permanent_cycles
            port.status.vector("cbr_service_requested").set(vc_index)
        elif service_class is ServiceClass.VBR:
            vc.permanent_cycles = request.permanent_cycles
            vc.peak_cycles = request.effective_peak
            port.status.vector("vbr_service_requested").set(vc_index)
        port.status.vector("connection_active").set(vc_index)
        port.mark_bound(vc_index)
        self._register_route_state(input_port, vc_index, output_port, output_vc)
        scheduler = self.link_schedulers[input_port]
        scheduler.refresh_round_state(vc)
        scheduler.invalidate_vc(vc)
        if output_vc >= 0:
            # A real downstream VC exists: record the direct/reverse channel
            # mappings.  Sink outputs (single-router mode) have no channel
            # identity to map.
            self.rau.register_connection(
                connection_id, input_port, vc_index, output_port, output_vc
            )
        if output_vc < 0:  # flits leave the network here: see _deliver
            self.connection_stats[connection_id] = ConnectionStats()
        self.stats.counter("connections_admitted")
        self.tracer.record(
            self.sim.now,
            "connection",
            f"open {input_port}.{vc_index} -> {output_port}",
            connection_id=connection_id,
        )
        if self.recorder.enabled:
            self.recorder.connection_open(
                self.sim.now, connection_id, input_port, vc_index
            )
        return vc_index

    def open_packet_vc(
        self,
        input_port: int,
        output_port: int,
        service_class: ServiceClass,
        connection_id: int,
        output_vc: int = -1,
        interarrival_cycles: float = 1.0,
    ) -> Optional[int]:
        """Grab a free VC for a VCT packet (control or best-effort, §3.4).

        Packets reserve no bandwidth — best-effort uses whatever is left
        over, control rides above data — so this bypasses admission.  The
        VC is released automatically when the packet's tail flit crosses
        the switch.  Returns the VC index, or None when the port has no
        free VC (the packet blocks upstream).
        """
        self.catch_up()
        if service_class not in (ServiceClass.CONTROL, ServiceClass.BEST_EFFORT):
            raise ValueError(
                f"open_packet_vc is for packet classes, got {service_class}"
            )
        port = self.input_ports[input_port]
        vc_index = port.find_free_vc()
        if vc_index is None:
            self.stats.counter("packet_vc_blocked")
            return None
        vc = port.vcs[vc_index]
        vc.bind(connection_id, service_class, output_port, output_vc)
        vc.interarrival_cycles = interarrival_cycles
        port.status.vector("connection_active").set(vc_index)
        port.mark_bound(vc_index)
        self._register_route_state(input_port, vc_index, output_port, output_vc)
        scheduler = self.link_schedulers[input_port]
        scheduler.refresh_round_state(vc)
        scheduler.invalidate_vc(vc)
        self.stats.counter("packet_vcs_opened")
        return vc_index

    def close_connection(
        self,
        connection_id: int,
        input_port: int,
        vc_index: int,
        output_port: int,
        request: BandwidthRequest,
    ) -> None:
        """Tear down a connection and return its resources."""
        self.catch_up()
        port = self.input_ports[input_port]
        vc = port.vcs[vc_index]
        if vc.connection_id != connection_id:
            raise RuntimeError(
                f"VC {input_port}.{vc_index} bound to {vc.connection_id}, "
                f"not {connection_id}"
            )
        self.scrub_vc_scheduling_state(input_port, vc_index)
        vc.release()
        port.status.vector("cbr_service_requested").clear(vc_index)
        port.status.vector("vbr_service_requested").clear(vc_index)
        port.status.vector("connection_active").clear(vc_index)
        port.mark_free(vc_index)
        self.rau.release_connection(connection_id)
        self.admission.release(input_port, output_port, request)
        self.stats.counter("connections_closed")
        self.tracer.record(
            self.sim.now,
            "connection",
            f"close {input_port}.{vc_index}",
            connection_id=connection_id,
        )
        if self.recorder.enabled:
            self.recorder.connection_close(
                self.sim.now, connection_id, input_port, vc_index
            )

    def renegotiate_connection(
        self,
        input_port: int,
        vc_index: int,
        old: BandwidthRequest,
        new: BandwidthRequest,
    ) -> bool:
        """Apply a SET_BANDWIDTH control word to an established connection.

        Atomically swaps the reservation on both links; on success the
        VC's round budget follows the new contract.
        """
        self.catch_up()
        vc = self.input_ports[input_port].vcs[vc_index]
        if vc.connection_id is None:
            raise RuntimeError(f"VC {input_port}.{vc_index} has no connection")
        output_port = vc.output_port
        if not self.admission.outputs[output_port].renegotiate(old, new):
            return False
        if not self.admission.inputs[input_port].renegotiate(old, new):
            # Roll the output side back to the old contract.
            if not self.admission.outputs[output_port].renegotiate(new, old):
                raise RuntimeError("renegotiation rollback failed")
            return False
        if vc.service_class is ServiceClass.CBR:
            vc.allocated_cycles = new.permanent_cycles
        else:
            vc.permanent_cycles = new.permanent_cycles
            vc.peak_cycles = new.effective_peak
        # The new contract may change which round tier the VC sits in
        # right now (e.g. a raised allocation un-exhausts it mid-round)
        # and feeds the cached priority terms.
        scheduler = self.link_schedulers[input_port]
        scheduler.refresh_round_state(vc)
        scheduler.invalidate_vc(vc)
        self.stats.counter("renegotiations")
        return True

    # ----- flit path ----------------------------------------------------------

    def inject(self, input_port: int, vc_index: int, flit: Flit) -> bool:
        """Deliver a fully received flit into an input virtual channel.

        Returns False (without enqueuing) when the VC buffer is full —
        the caller models upstream flow control and must retry after a
        credit returns.  Control-class flits attempt asynchronous VCT
        cut-through first (§3.4).

        Held to the per-hop budget (DESIGN.md §7h): one buffer-length read,
        ``VirtualChannel.enqueue`` inline, a write per status bit that
        changes, and no statistics (those are :meth:`_deliver`'s).
        """
        vcs = self.input_ports[input_port].vcs
        # The caller names the VC: check it, because the status bits
        # below are written longhand (no ``BitVector`` range check) and
        # a negative index would alias another VC.
        if not 0 <= vc_index < self.config.vcs_per_port:
            raise IndexError(f"vc {vc_index} out of range [0, {len(vcs)})")
        vc = vcs[vc_index]
        flit_type = flit.flit_type
        if (
            flit_type is not _DATA
            and flit_type in IMMEDIATE_TYPES
            and self._try_immediate_cut_through(input_port, vc, flit)
        ):
            return True
        bit = 1 << vc_index
        buffer = vc.buffer
        occupancy = len(buffer)
        if occupancy >= vc.capacity:
            self._input_buffer_full[input_port]._bits |= bit
            self.stats.counter("inject_blocked")
            return False
        if occupancy:
            buffer.append(flit)
        else:
            # The flit becomes head: stamp it and publish the VC (and
            # the port, if idle).
            flit.ready_time = self.sim.now
            if type(buffer) is tuple:
                buffer = vc.buffer = deque()
            buffer.append(flit)
            flits_available = self._flits_available[input_port]
            if not flits_available._bits:
                activity = self.activity
                if activity._bits:
                    activity._bits |= 1 << input_port
                else:
                    activity.set(input_port)  # idle router: wakes its ticker
            flits_available._bits |= bit
        if occupancy + 1 >= vc.capacity:
            self._input_buffer_full[input_port]._bits |= bit
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                self.sim.now,
                "inject",
                f"port {input_port} vc {vc_index}",
                connection_id=flit.connection_id,
                flit_id=flit.flit_id,
            )
        recorder = self.recorder
        if recorder.enabled:
            recorder.flit_inject(
                self.sim.now, input_port, vc_index, flit.connection_id, flit.flit_id
            )
        return True

    def _try_immediate_cut_through(
        self, input_port: int, vc: VirtualChannel, flit: Flit
    ) -> bool:
        """Forward a control flit now if its output link is idle (§3.4)."""
        output_port = vc.output_port
        if output_port < 0:
            return False
        if output_port in self._immediate_busy_outputs:
            return False
        if self.crossbar.output_for(input_port) is not None:
            # The input's switch port is mid-transmission this cycle.
            return False
        if any(
            out == output_port for out in self.crossbar.configuration.values()
        ):
            return False
        if vc.buffer:
            # Flits already queued on this VC must stay ordered.
            return False
        if vc.output_vc >= 0 and not self.output_flow[output_port].has_credit(
            vc.output_vc
        ):
            return False
        flit.ready_time = self.sim.now
        # The cut-through event must precede the deliver event it causes.
        if self.recorder.enabled:
            self.recorder.cut_through(
                self.sim.now,
                input_port,
                output_port,
                flit.connection_id,
                flit.flit_id,
            )
        self._deliver(flit, vc, output_port, depart_time=self.sim.now)
        self._immediate_busy_outputs.add(output_port)
        self.activity.set(self._act_immediate)
        self.rau.immediate_forwards += 1
        self.stats.counter("immediate_cut_throughs")
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now,
                "cutthrough",
                f"port {input_port} -> {output_port}",
                connection_id=flit.connection_id,
                flit_id=flit.flit_id,
            )
        return True

    def tick(self, cycle: int) -> None:
        """One flit cycle: schedule, reconfigure, transmit, account.

        The per-port activity bits — which mirror ``flits_available`` —
        gate the polling: an idle port offers nothing either way, so the
        short-circuit is behaviour-preserving.  Only non-empty offer lists
        reach the switch scheduler, in port order.  A cycle with no
        buffered flits and no cut-through anywhere skips switch
        scheduling entirely (the schedulers grant nothing and draw no
        random state when nothing is offered); only the crossbar teardown
        and the cycle accounting remain.
        """
        activity = self.activity
        busy_outputs = self._immediate_busy_outputs
        port_bits = activity._bits & self._port_mask
        if port_bits or busy_outputs:
            link_schedulers = self.link_schedulers
            offer_lists = []
            bits = port_bits
            while bits:
                low = bits & -bits
                bits ^= low
                offers = link_schedulers[low.bit_length() - 1].candidates(cycle)
                if offers and busy_outputs:
                    offers = [o for o in offers if o[3] not in busy_outputs]
                if offers:
                    offer_lists.append(offers)
            switch_scheduler = self.switch_scheduler
            grants = switch_scheduler.schedule(offer_lists, cycle)
            switch_scheduler.schedule_calls += 1
            if self.checked:
                validate_grants(
                    grants,
                    self.config.num_ports,
                    switch_scheduler.output_concurrency,
                    offer_lists,
                )
            if grants:
                flits = len(grants)
                switch_scheduler.grants_issued += flits
                # The grant set satisfies the matching property by
                # construction (and validate_grants just proved it when
                # checking is on), so skip configure()'s re-validation;
                # every configured input moves exactly one flit.
                matching = {}
                for input_port, _, output_port in grants:
                    matching[input_port] = output_port
                self.crossbar.install(matching)
                self.crossbar.flits_switched += flits
                for grant in grants:
                    self._transmit(grant, cycle)
            else:
                self.crossbar.configure({})
                flits = 0
        else:
            self.crossbar.teardown()
            flits = 0
        # Counters longhand, as in account_idle_cycles: once per tick.
        scalars = self.stats.scalars
        scalars["cycles"] = scalars.get("cycles", 0.0) + 1.0
        scalars["flits_switched"] = scalars.get("flits_switched", 0.0) + flits
        if busy_outputs:
            busy_outputs.clear()
            activity.clear(self._act_immediate)
        # Keep the router active while the crossbar holds a configuration:
        # the tick after the last transmission tears it down (and counts
        # the reconfiguration) exactly as the always-ticking kernel did.
        if flits:
            if not activity._bits >> self._act_crossbar & 1:
                activity.set(self._act_crossbar)
        elif activity._bits >> self._act_crossbar & 1:
            activity.clear(self._act_crossbar)
        if (cycle + 1) % self._round_length == 0:
            recorder = self.recorder
            if recorder.enabled:
                # Sample *before* the schedulers reset their round
                # accounting so consumed-vs-reserved reflects this round.
                recorder.sample_round(self, cycle)
            for scheduler in self.link_schedulers:
                scheduler.on_round_boundary()
            if self._switch_delays:
                self.fold_statistics()
            tracer = self.tracer
            if tracer.enabled:
                tracer.record(cycle, "round", "round boundary")

    def account_idle_cycles(self, start: int, count: int) -> None:
        """Bookkeeping for cycles the kernel skipped this router's tick.

        Called by the simulator (see ``Simulator.add_ticker``) with the
        span this router slept through, possibly long after the fact.
        Replays exactly what :meth:`tick` does on a cycle with no flits
        buffered: advance the cycle counters and process any round
        boundary in the span (resetting per-round service state is
        idempotent while no flit moves, so the skipped boundaries collapse
        losslessly).  Span-pure: it reads nothing a wake changes (the
        waking flit is already buffered, hence ``idle=True`` to the
        recorder) and :meth:`catch_up` runs before the control plane
        changes the rest.
        """
        # Counter updates written out longhand: this runs once per skipped
        # span, which at light load is once per flit period.
        scalars = self.stats.scalars
        before = scalars.get("cycles", 0.0)
        scalars["cycles"] = before + count
        scalars.setdefault("flits_switched", 0.0)
        round_length = self._round_length
        # Boundary cycles c satisfy (c + 1) % round_length == 0; find the
        # first at or after ``start``, then stride.  Most skipped spans are
        # shorter than a round and contain no boundary at all.
        first = start + (round_length - 1 - start % round_length)
        if first < start + count:
            if self._switch_delays:
                self.fold_statistics()
            recorder = self.recorder
            for cycle in range(first, start + count, round_length):
                if recorder.enabled:
                    # The sample reads the cycle counter: show it the
                    # count as of this boundary, not the end of the span.
                    scalars["cycles"] = before + (cycle + 1 - start)
                    recorder.sample_round(self, cycle, idle=True)
                    scalars["cycles"] = before + count
                for scheduler in self.link_schedulers:
                    scheduler.on_round_boundary()
                if self.tracer.enabled:
                    self.tracer.record(cycle, "round", "round boundary")

    def _transmit(self, grant: Grant, cycle: int) -> None:
        input_port, vc_index, output_port = grant
        vc = self.input_ports[input_port].vcs[vc_index]
        # ``VirtualChannel.dequeue`` inline and status bits longhand (the
        # grant's indices are the router's own): see DESIGN.md §7h.
        buffer = vc.buffer
        if not buffer:
            raise RuntimeError(f"VC {input_port}.{vc_index} empty")
        flit = buffer.popleft()
        scheduler = self.link_schedulers[input_port]
        bit = 1 << vc_index
        if buffer:
            # The successor becomes head: stamp it (the scan re-checks
            # head identity, so its cached terms need no invalidation).
            buffer[0].ready_time = cycle + 1
        else:
            flits_available = self._flits_available[input_port]
            flits_available._bits &= ~bit
            if not flits_available._bits:
                self.activity._bits &= ~(1 << input_port)
        buffer_full = self._input_buffer_full[input_port]
        if buffer_full._bits & bit:
            buffer_full._bits ^= bit
        recorder = self.recorder
        if recorder.enabled:
            recorder.flit_grant(
                cycle, input_port, vc_index, flit.connection_id, flit.flit_id
            )
        scheduler.on_flit_serviced(vc)
        handler = self.credit_return_handlers[input_port]
        if handler is not None:
            handler(vc_index)
        self._deliver(flit, vc, output_port, cycle + 1)

    def _deliver(
        self, flit: Flit, vc: VirtualChannel, output_port: int, depart_time: int
    ) -> None:
        """Send ``flit`` through ``output_port``.

        The statistics rule (DESIGN.md §7h): delay samples are recorded
        only where a flit leaves through an output with no downstream VC —
        the single-router sink, a host port in a network — and there as
        two appends (the connection's pending list and ``switch_delay``'s),
        folded once per round by :meth:`fold_statistics`.  A transit hop
        bumps ``output_flits`` and nothing else (a live tracer or recorder
        still sees every hop); network results are read at
        ``NetworkInterface.end_to_end``.
        """
        flit.depart_time = depart_time
        delay = depart_time - flit.created
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                depart_time,
                "deliver",
                f"output {output_port} delay {delay}",
                connection_id=flit.connection_id,
                flit_id=flit.flit_id,
            )
        recorder = self.recorder
        if recorder.enabled:
            recorder.flit_deliver(
                depart_time, output_port, delay, flit.connection_id, flit.flit_id
            )
        self.output_flits[output_port] += 1
        service_class = vc.service_class
        is_packet = service_class is _CONTROL or service_class is _BEST_EFFORT
        output_vc = vc.output_vc
        if output_vc >= 0:
            self.output_flow[output_port].consume(output_vc)
        else:
            stats = self.connection_stats.get(flit.connection_id)
            if stats is None and is_packet:
                # A packet's VC is opened before its route is known, so
                # its entry is made where it turns out to leave.
                stats = self.connection_stats[flit.connection_id] = ConnectionStats()
            if stats is not None:
                stats.pending.append(delay)
            self._switch_delays.append(delay)
        handler = self.output_handlers[output_port]
        if handler is not None:
            handler(flit, output_vc)
        # VCT packets release their virtual channel once fully sent (§3.4).
        if (
            is_packet
            and flit.is_tail
            and not vc.buffer
            and vc.connection_id is not None
        ):
            self._release_packet_vc(vc)

    def _release_packet_vc(self, vc: VirtualChannel) -> None:
        port = self.input_ports[vc.port]
        self.scrub_vc_scheduling_state(vc.port, vc.index)
        vc.release()
        port.status.vector("connection_active").clear(vc.index)
        port.mark_free(vc.index)
        if self.rau.mappings.forward((vc.port, vc.index)) is not None:
            self.rau.mappings.remove_by_input((vc.port, vc.index))
        self.stats.counter("packet_vcs_released")
        # Packet connection stats stay: the id may be reused for reporting.

    # ----- reporting --------------------------------------------------------

    def _reset_sink_statistics(self) -> None:
        self.stats = StatsRegistry()
        # Optional per-flit delay histogram (cycles), for tail metrics.
        self._delay_histogram: Optional[Histogram] = (
            Histogram(0.0, 4096.0, self._delay_histogram_bins)
            if self._delay_histogram_bins
            else None
        )
        self._switch_delays = self.stats.defer("switch_delay", self._delay_histogram)

    @property
    def delay_histogram(self) -> Optional[Histogram]:
        """Per-flit delay histogram (cycles), or None when not enabled."""
        self.stats.fold()
        return self._delay_histogram

    def fold_statistics(self) -> None:
        """Fold the delay samples :meth:`_deliver` appended into
        ``switch_delay``, the histogram and each connection's statistics.

        Runs at every round boundary, so at most one round of samples
        waits; reads fold on their own, and pickling folds first, so a
        checkpoint carries no pending sample.  Bit-identical to folding
        each flit as it leaves (:mod:`repro.sim.stats`).
        """
        self.stats.fold()
        for stats in self.connection_stats.values():
            if stats.pending:
                stats.fold()

    def __getstate__(self) -> dict:
        # Fold before any attribute is written: the pending list is shared
        # with the registry, and the fold writes the series and histogram.
        self.fold_statistics()
        return self.__dict__

    def reset_statistics(self) -> None:
        """Discard warm-up statistics; connection bindings are untouched.

        The paper gathers statistics "until steady state was reached";
        harnesses call this at the end of the warm-up window.
        """
        self.catch_up()
        self._reset_sink_statistics()
        self.output_flits = [0] * self.config.num_ports
        for connection_id in list(self.connection_stats):
            self.connection_stats[connection_id] = ConnectionStats()
        self.crossbar.reconfigurations = 0
        self.crossbar.flits_switched = 0
        for scheduler in self.link_schedulers:
            scheduler.candidates_offered = 0
            scheduler.cycles_with_candidates = 0
            scheduler.eligible_vcs_total = 0
            scheduler.vbr_permanent_grants = 0
            scheduler.vbr_excess_grants = 0
        self.switch_scheduler.grants_issued = 0
        self.switch_scheduler.schedule_calls = 0

    def check_invariants(self) -> None:
        """Validate cross-structure consistency (tests/checked mode).

        * ``flits_available`` mirrors VC buffer occupancy exactly;
        * ``input_buffer_full`` is only set on genuinely full VCs;
        * the free-VC pools mirror connection bindings;
        * ``connection_active`` matches bound VCs;
        * the scan's vectors hold: ``routed`` mirrors resolved output
          ports, ``credits_available`` mirrors :meth:`_credit_check` on
          routed VCs, and ``round_budget_exhausted`` plus the cached
          ``round_offset`` reproduce the reference round gate;
        * the published activity bits mirror ``flits_available`` per port
          (a desync here would let the kernel skip a busy router);
        * the RAU's direct/reverse stores are mirror images.

        Raises ``AssertionError`` on the first violation.
        """
        for port in self.input_ports:
            status = port.status
            scheduler = self.link_schedulers[port.port]
            for vc in port.vcs:
                has_flits = status.vector("flits_available").test(vc.index)
                assert has_flits == (vc.occupancy > 0), (
                    f"{self.name}: flits_available desync at "
                    f"{port.port}.{vc.index}"
                )
                if status.vector("input_buffer_full").test(vc.index):
                    assert vc.is_full, (
                        f"{self.name}: input_buffer_full set on non-full "
                        f"{port.port}.{vc.index}"
                    )
                bound = vc.connection_id is not None
                assert status.vector("connection_active").test(vc.index) == bound, (
                    f"{self.name}: connection_active desync at "
                    f"{port.port}.{vc.index}"
                )
                assert (port._free_vcs >> vc.index & 1) == (not bound), (
                    f"{self.name}: free pool desync at {port.port}.{vc.index}"
                )
                routed = bound and vc.output_port >= 0
                assert status.vector("routed").test(vc.index) == routed, (
                    f"{self.name}: routed desync at {port.port}.{vc.index}"
                )
                credits_bit = status.vector("credits_available").test(vc.index)
                if routed:
                    assert credits_bit == self._credit_check(
                        vc.output_port, vc.output_vc
                    ), (
                        f"{self.name}: credits_available desync at "
                        f"{port.port}.{vc.index}"
                    )
                else:
                    assert credits_bit, (
                        f"{self.name}: credits_available not parked at "
                        f"{port.port}.{vc.index}"
                    )
                gate = scheduler._round_gate(vc) if bound else 0.0
                exhausted = status.vector("round_budget_exhausted").test(vc.index)
                assert exhausted == (gate is None), (
                    f"{self.name}: round_budget_exhausted desync at "
                    f"{port.port}.{vc.index}"
                )
                if gate is not None:
                    assert vc.round_offset == gate, (
                        f"{self.name}: round_offset desync at "
                        f"{port.port}.{vc.index}: "
                        f"{vc.round_offset} != {gate}"
                    )
            assert self.activity.test(port.port) == status.vector(
                "flits_available"
            ).any(), f"{self.name}: activity bit desync at port {port.port}"
        self.rau.mappings.check_consistency()

    def utilisation(self) -> float:
        """Delivered fraction of aggregate switch bandwidth so far."""
        cycles = self.stats.get_counter("cycles")
        if not cycles:
            return 0.0
        return self.stats.get_counter("flits_switched") / (
            cycles * self.config.num_ports
        )

    def buffered_flits(self) -> int:
        """Flits currently waiting in input VCs (for drain checks).

        Walks the set bits of ``flits_available`` — the occupied VCs, not
        the provisioned ones; :meth:`check_invariants` proves the two
        agree.
        """
        total = 0
        for port, flits_available in zip(self.input_ports, self._flits_available):
            vcs = port.vcs
            for vc_index in flits_available.indices():
                total += len(vcs[vc_index].buffer)
        return total
