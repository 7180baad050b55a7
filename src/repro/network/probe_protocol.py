"""Cycle-accurate PCS establishment: probes, backtracks, acks (§3.4-3.5).

:class:`~repro.network.connection.ConnectionManager` establishes
connections with an instantaneous control-plane walk plus a latency model.
This module implements the *wire protocol* itself: routing probes travel
hop by hop as immediate-class flits, reserving a virtual channel and
bandwidth as they advance; on a dead end a BACKTRACK flit retraces the
reverse channel mapping, releasing reservations and marking the history
store; when the probe reaches the destination an ACK returns along the
reverse mappings and the connection opens.  TEARDOWN flits release a
connection hop by hop, and SET_BANDWIDTH control words renegotiate an
established session's contract in place (§4.3).

Control flits use the router's asynchronous cut-through path when the
output link is idle (§3.4) and otherwise consume the reconfiguration
gaps; we model each hop of control traffic as a fixed
``CONTROL_HOP_CYCLES`` delay on the simulator clock.

The protocol exists alongside the instantaneous manager so experiments
can choose fidelity: the figure harness needs thousands of established
connections (instantaneous), while the establishment-latency and
session-churn studies need the real token passing (this module).

Every scheduled continuation is a bound method plus a plain payload —
never a closure — so a simulation with probes, acks or teardowns in
flight checkpoints through the checkpoint codec like the rest of the
component graph.  Completion callbacks ride on the session object itself;
a caller that wants checkpointability passes a picklable callable (e.g. a
bound method of a harness that is itself part of the checkpoint).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.bandwidth import BandwidthRequest
from ..core.virtual_channel import ServiceClass
from ..obs.recorder import NULL_RECORDER
from ..obs.spans import (
    DROPPED,
    STATUS_BLOCKED,
    STATUS_OK,
    STATUS_REFUSED,
    STATUS_ROLLED_BACK,
)
from ..routing.epb import profitable_ports
from ..routing.history import HistoryStore
from .network import Network

#: Cycles one control flit (probe/backtrack/ack/teardown) spends per hop:
#: link traversal plus header decode at the next router.
CONTROL_HOP_CYCLES = 2

# Completion callback: (probe, established?) -> None.
Completion = Callable[["ProbeSession", bool], None]


@dataclass
class HopReservation:
    """State the probe holds at one router it has traversed."""

    node: int
    entry_port: int
    vc_index: int
    output_port: int = -1


@dataclass
class ProbeSession:
    """One in-flight establishment attempt."""

    session_id: int
    source: int
    destination: int
    request: BandwidthRequest
    service_class: ServiceClass
    interarrival_cycles: float
    static_priority: float
    started_at: int
    history: HistoryStore = field(default_factory=HistoryStore)
    reservations: List[HopReservation] = field(default_factory=list)
    links_searched: int = 0
    backtracks: int = 0
    finished_at: Optional[int] = None
    established: bool = False
    #: Filled on success: same shape as NetworkConnection's path fields.
    path: List[int] = field(default_factory=list)
    ports: List[int] = field(default_factory=list)
    vcs: List[int] = field(default_factory=list)
    entry_ports: List[int] = field(default_factory=list)
    #: Establishment / teardown completion callbacks (stored here, not in
    #: event closures, so in-flight protocol state is picklable).
    on_complete: Optional[Completion] = None
    on_teardown: Optional[Completion] = None
    #: Control-plane span ids (plain ints so sessions stay picklable);
    #: :data:`~repro.obs.spans.DROPPED` (0) means "no span".
    span_id: int = DROPPED
    setup_span: int = DROPPED
    hop_span: int = DROPPED
    ack_span: int = DROPPED
    teardown_span: int = DROPPED
    drain_span: int = DROPPED

    @property
    def setup_cycles(self) -> int:
        """Wall-clock cycles establishment took (probe + ack)."""
        if self.finished_at is None:
            raise RuntimeError("probe still in flight")
        return self.finished_at - self.started_at


class ProbeProtocol:
    """Drives probe/backtrack/ack/teardown token passing over a network."""

    def __init__(self, network: Network) -> None:
        self.network = network
        # Span emission goes through the network's shared recorder; the
        # NULL_RECORDER fallback keeps every call site a plain attribute
        # read + ``enabled`` branch (the flit-trace contract).
        self.recorder = (
            network.recorder if network.recorder is not None else NULL_RECORDER
        )
        self._ids = itertools.count(1)
        self.sessions: Dict[int, ProbeSession] = {}
        self.probes_sent = 0
        self.acks_sent = 0
        self.backtracks_sent = 0
        self.teardowns_completed = 0
        self.renegotiations_applied = 0
        self.renegotiations_refused = 0

    # ----- establishment -------------------------------------------------------

    def establish(
        self,
        source: int,
        destination: int,
        request: BandwidthRequest,
        on_complete: Completion,
        service_class: ServiceClass = ServiceClass.CBR,
        interarrival_cycles: float = 1.0,
        static_priority: float = 0.0,
    ) -> ProbeSession:
        """Launch a probe; ``on_complete(session, ok)`` fires when the ack
        (or the final backtrack) reaches the source."""
        if source == destination:
            raise ValueError("source and destination routers must differ")
        session = ProbeSession(
            session_id=next(self._ids),
            source=source,
            destination=destination,
            request=request,
            service_class=service_class,
            interarrival_cycles=interarrival_cycles,
            static_priority=static_priority,
            started_at=self.network.sim.now,
            on_complete=on_complete,
        )
        self.sessions[session.session_id] = session
        recorder = self.recorder
        if recorder.enabled:
            tracer = recorder.spans
            now = session.started_at
            session.span_id = tracer.begin(
                f"session {session.session_id}",
                "session",
                now,
                session=session.session_id,
                source=source,
                destination=destination,
            )
            session.setup_span = tracer.begin(
                "setup",
                "setup",
                now,
                parent=session.span_id,
                session=session.session_id,
            )
        topology = self.network.topology
        host_port = topology.host_port(source)
        source_router = self.network.routers[source]
        source_vc = source_router.input_ports[host_port].find_free_vc()
        admitted = source_vc is not None and source_router.admission.inputs[
            host_port
        ].can_allocate(request)
        if not admitted:
            self._finish(session, False, delay=1)
            return session
        # The source hop is reserved when the probe leaves the interface;
        # output port is fixed once the probe picks its first link.
        session.reservations.append(HopReservation(source, host_port, -1))
        self.probes_sent += 1
        self.network.sim.schedule(1, self._probe_step_event, session.session_id)
        return session

    # ----- probe movement ----------------------------------------------------------

    def _probe_step_event(self, session_id: int) -> None:
        """Event trampoline: advance the probe of one session."""
        self._probe_step(self.sessions[session_id])

    def _close_hop_span(self, session: ProbeSession, status: str = STATUS_OK) -> None:
        """Close the session's pending per-hop span, if one is open.

        Hop spans cover a control token's link traversal, so they begin
        when the token commits to a hop and end when the next protocol
        event fires (``CONTROL_HOP_CYCLES`` later).
        """
        if session.hop_span:
            self.recorder.spans.end(
                session.hop_span, self.network.sim.now, status
            )
            session.hop_span = DROPPED

    def _probe_step(self, session: ProbeSession) -> None:
        """The probe sits at the tail reservation; try to advance it."""
        self._close_hop_span(session)
        topology = self.network.topology
        here = session.reservations[-1]
        node = here.node
        if node == session.destination:
            self._send_ack(session)
            return
        point = (node, here.entry_port)
        advanced = False
        for out_port, neighbor in profitable_ports(
            topology, node, session.destination
        ):
            if session.history.was_searched(point, out_port):
                continue
            session.history.mark_searched(point, out_port)
            session.links_searched += 1
            if any(r.node == neighbor for r in session.reservations):
                continue
            if not self._try_reserve_hop(session, node, out_port, neighbor):
                continue
            advanced = True
            break
        if advanced:
            if self.recorder.enabled:
                tail = session.reservations[-1]
                session.hop_span = self.recorder.spans.begin(
                    "hop",
                    "hop",
                    self.network.sim.now,
                    parent=session.setup_span,
                    node=node,
                    port=session.reservations[-2].output_port,
                    neighbor=tail.node,
                )
            self.network.sim.schedule(
                CONTROL_HOP_CYCLES, self._probe_step_event, session.session_id
            )
        else:
            self._backtrack(session)

    def _try_reserve_hop(
        self, session: ProbeSession, node: int, out_port: int, neighbor: int
    ) -> bool:
        """Reserve bandwidth on (node, out_port) and a VC at ``neighbor``."""
        topology = self.network.topology
        router = self.network.routers[node]
        entry = topology.port_of(neighbor, node)
        downstream = self.network.routers[neighbor]
        vc_index = downstream.input_ports[entry].find_free_vc()
        if vc_index is None:
            return False
        if not downstream.admission.inputs[entry].can_allocate(session.request):
            return False
        if not router.admission.outputs[out_port].can_allocate(session.request):
            return False
        # Commit: output bandwidth here, input bandwidth + VC downstream.
        if not router.admission.outputs[out_port].allocate(session.request):
            return False
        if not downstream.admission.inputs[entry].allocate(session.request):
            router.admission.outputs[out_port].release(session.request)
            return False
        downstream.input_ports[entry].bind_vc(
            vc_index, -session.session_id, session.service_class, -1
        )
        session.reservations[-1].output_port = out_port
        session.reservations.append(HopReservation(neighbor, entry, vc_index))
        return True

    def _backtrack(self, session: ProbeSession) -> None:
        """Release the tail hop and step the probe back (§3.5)."""
        self.backtracks_sent += 1
        self._close_hop_span(session)
        tail = session.reservations.pop()
        if session.reservations:
            session.backtracks += 1
            previous = session.reservations[-1]
            self._release_hop(previous, tail, session)
            if self.recorder.enabled:
                session.hop_span = self.recorder.spans.begin(
                    "backtrack",
                    "hop",
                    self.network.sim.now,
                    parent=session.setup_span,
                    node=tail.node,
                    back_to=previous.node,
                )
            self.network.sim.schedule(
                CONTROL_HOP_CYCLES, self._probe_step_event, session.session_id
            )
        else:
            # Backtracked out of the source: establishment failed.
            self._finish(session, False, delay=1)

    def _release_hop(
        self,
        previous: HopReservation,
        tail: HopReservation,
        session: ProbeSession,
    ) -> None:
        """Undo what :meth:`_try_reserve_hop` committed for ``tail``."""
        upstream = self.network.routers[previous.node]
        upstream.admission.outputs[previous.output_port].release(session.request)
        previous.output_port = -1
        downstream = self.network.routers[tail.node]
        downstream.admission.inputs[tail.entry_port].release(session.request)
        vc = downstream.input_ports[tail.entry_port].vcs[tail.vc_index]
        vc.release()
        downstream.input_ports[tail.entry_port].mark_free(tail.vc_index)

    # ----- acknowledgment ------------------------------------------------------------

    def _send_ack(self, session: ProbeSession) -> None:
        """Destination reached: return the ack, installing connection state."""
        self.acks_sent += 1
        topology = self.network.topology
        # The destination hop exits through its host port.
        last = session.reservations[-1]
        last.output_port = topology.host_port(session.destination)
        if not self.network.routers[session.destination].admission.outputs[
            last.output_port
        ].allocate(session.request):
            # Destination host egress filled while the probe was in flight.
            self._backtrack(session)
            return
        # Reserve the source hop's input VC now that the path is certain.
        source_router = self.network.routers[session.source]
        head = session.reservations[0]
        source_vc = source_router.input_ports[head.entry_port].find_free_vc()
        if source_vc is None or not source_router.admission.inputs[
            head.entry_port
        ].allocate(session.request):
            self.network.routers[session.destination].admission.outputs[
                last.output_port
            ].release(session.request)
            self._backtrack(session)
            return
        source_router.input_ports[head.entry_port].bind_vc(
            source_vc, -session.session_id, session.service_class, -1
        )
        head.vc_index = source_vc
        # The ack walks back over the reverse mappings, configuring each
        # hop's VC state; model it as one delayed installation.
        ack_latency = CONTROL_HOP_CYCLES * (len(session.reservations) - 1) + 1
        if self.recorder.enabled:
            session.ack_span = self.recorder.spans.begin(
                "ack",
                "ack",
                self.network.sim.now,
                parent=session.setup_span,
                hops=len(session.reservations),
            )
        self.network.sim.schedule(
            ack_latency, self._install_event, session.session_id
        )

    def _install_event(self, session_id: int) -> None:
        """Event trampoline: the ack reached the source."""
        self._install(self.sessions[session_id])

    def _install(self, session: ProbeSession) -> None:
        """Ack reached the source: finalise per-hop VC scheduling state."""
        if session.ack_span:
            self.recorder.spans.end(session.ack_span, self.network.sim.now)
            session.ack_span = DROPPED
        connection_id = -session.session_id
        downstream_vc = -1
        for i in range(len(session.reservations) - 1, -1, -1):
            hop = session.reservations[i]
            router = self.network.routers[hop.node]
            router.catch_up()  # the writes below bypass the router's API
            vc = router.input_ports[hop.entry_port].vcs[hop.vc_index]
            vc.interarrival_cycles = session.interarrival_cycles
            vc.static_priority = session.static_priority
            if session.service_class is ServiceClass.CBR:
                vc.allocated_cycles = session.request.permanent_cycles
                router.input_ports[hop.entry_port].status.vector(
                    "cbr_service_requested"
                ).set(hop.vc_index)
            elif session.service_class is ServiceClass.VBR:
                vc.permanent_cycles = session.request.permanent_cycles
                vc.peak_cycles = session.request.effective_peak
                router.input_ports[hop.entry_port].status.vector(
                    "vbr_service_requested"
                ).set(hop.vc_index)
            # assign_route (not direct field writes) keeps the fast-path
            # routed/credits vectors in sync and refreshes the priority
            # terms; the bandwidth fields above feed the round gate, so
            # refresh that too.
            router.assign_route(
                hop.entry_port, hop.vc_index, hop.output_port, downstream_vc
            )
            router.input_ports[hop.entry_port].status.vector(
                "connection_active"
            ).set(hop.vc_index)
            router.link_schedulers[hop.entry_port].refresh_round_state(vc)
            if downstream_vc >= 0:
                router.rau.register_connection(
                    connection_id,
                    hop.entry_port,
                    hop.vc_index,
                    hop.output_port,
                    downstream_vc,
                )
            downstream_vc = hop.vc_index
        session.path = [r.node for r in session.reservations]
        session.ports = [r.output_port for r in session.reservations]
        session.vcs = [r.vc_index for r in session.reservations]
        session.entry_ports = [r.entry_port for r in session.reservations]
        self._finish(session, True, delay=0)

    def _finish(self, session: ProbeSession, established: bool, delay: int) -> None:
        if delay:
            self.network.sim.schedule(
                delay, self._finish_event, (session.session_id, established)
            )
        else:
            self._complete(session, established)

    def _finish_event(self, payload: Tuple[int, bool]) -> None:
        """Event trampoline: deliver a delayed completion."""
        session_id, established = payload
        self._complete(self.sessions[session_id], established)

    def _complete(self, session: ProbeSession, established: bool) -> None:
        session.finished_at = self.network.sim.now
        session.established = established
        if session.setup_span:
            # The ids stay on the session after closing so the harness can
            # reference the offending span in SLO violation records.
            tracer = self.recorder.spans
            status = STATUS_OK if established else STATUS_BLOCKED
            tracer.end(
                session.setup_span,
                session.finished_at,
                status,
                backtracks=session.backtracks,
                links_searched=session.links_searched,
            )
            if not established:
                # A blocked establishment is the whole session: close its
                # root too.  Established sessions stay open until teardown.
                tracer.end(session.span_id, session.finished_at, STATUS_BLOCKED)
            else:
                tracer.annotate(session.span_id, hops=len(session.path))
        callback = session.on_complete
        if callback is not None:
            callback(session, established)

    # ----- dynamic bandwidth management (§4.3) -----------------------------------

    def renegotiate(
        self,
        session: ProbeSession,
        new_request: BandwidthRequest,
        interarrival_cycles: Optional[float] = None,
    ) -> bool:
        """Apply a SET_BANDWIDTH control word along the session's path.

        Every hop swaps the old contract for ``new_request`` or — when any
        hop lacks capacity — the already-renegotiated hops roll back and
        the old contract stays everywhere (the control word is NACKed).
        ``interarrival_cycles``, when given, updates the per-hop VC pacing
        term the biased priority consults.
        """
        if not session.established:
            raise RuntimeError("cannot renegotiate an unestablished session")
        recorder = self.recorder
        tracer = recorder.spans
        now = self.network.sim.now
        reneg_span = DROPPED
        if recorder.enabled:
            reneg_span = tracer.begin(
                "renegotiation",
                "renegotiation",
                now,
                parent=session.span_id,
                session=session.session_id,
            )
        applied: List[HopReservation] = []
        for hop in session.reservations:
            router = self.network.routers[hop.node]
            hop_span = DROPPED
            if recorder.enabled:
                hop_span = tracer.begin(
                    "set_bandwidth",
                    "renegotiation",
                    now,
                    parent=reneg_span,
                    node=hop.node,
                )
            ok = router.renegotiate_connection(
                hop.entry_port, hop.vc_index, session.request, new_request
            )
            if not ok:
                tracer.end(hop_span, now, STATUS_REFUSED)
                for back in reversed(applied):
                    if not self.network.routers[back.node].renegotiate_connection(
                        back.entry_port, back.vc_index, new_request, session.request
                    ):
                        raise RuntimeError("renegotiation rollback failed")
                    if recorder.enabled:
                        rollback_span = tracer.begin(
                            "rollback",
                            "renegotiation",
                            now,
                            parent=reneg_span,
                            node=back.node,
                        )
                        tracer.end(rollback_span, now, STATUS_ROLLED_BACK)
                tracer.end(reneg_span, now, STATUS_ROLLED_BACK)
                self.renegotiations_refused += 1
                return False
            tracer.end(hop_span, now)
            applied.append(hop)
        tracer.end(reneg_span, now)
        session.request = new_request
        if interarrival_cycles is not None:
            session.interarrival_cycles = interarrival_cycles
            for hop in session.reservations:
                router = self.network.routers[hop.node]
                router.input_ports[hop.entry_port].vcs[
                    hop.vc_index
                ].interarrival_cycles = interarrival_cycles
                # A head flit parked on the VC competes under the new rate.
                router.refresh_priority_terms(hop.entry_port, hop.vc_index)
        self.renegotiations_applied += 1
        return True

    # ----- teardown -------------------------------------------------------------------

    def teardown(self, session: ProbeSession, on_complete: Optional[Completion] = None) -> None:
        """Send a TEARDOWN token hop by hop, releasing the connection."""
        if not session.established:
            raise RuntimeError("cannot tear down an unestablished session")
        session.on_teardown = on_complete
        if self.recorder.enabled:
            session.teardown_span = self.recorder.spans.begin(
                "teardown",
                "teardown",
                self.network.sim.now,
                parent=session.span_id,
                session=session.session_id,
                hops=len(session.reservations),
            )
        self._teardown_step(session, 0)

    def _teardown_step_event(self, payload: Tuple[int, int]) -> None:
        """Event trampoline: the teardown token reached its next hop."""
        session_id, index = payload
        self._teardown_step(self.sessions[session_id], index)

    def _teardown_step(self, session: ProbeSession, index: int) -> None:
        self._close_hop_span(session)
        now = self.network.sim.now
        if index >= len(session.reservations):
            session.established = False
            self.teardowns_completed += 1
            if session.teardown_span:
                # ``teardown`` rejects re-teardown (established is False
                # now), so these close exactly once; ids stay for queries.
                tracer = self.recorder.spans
                tracer.end(session.teardown_span, now)
                tracer.end(session.span_id, now)
            callback = session.on_teardown
            if callback is not None:
                callback(session, False)
            return
        hop = session.reservations[index]
        if self.recorder.enabled:
            session.hop_span = self.recorder.spans.begin(
                "teardown_hop",
                "teardown",
                now,
                parent=session.teardown_span,
                node=hop.node,
            )
        router = self.network.routers[hop.node]
        port = router.input_ports[hop.entry_port]
        vc = port.vcs[hop.vc_index]
        router.scrub_vc_scheduling_state(hop.entry_port, hop.vc_index)
        vc.release()
        port.status.vector("cbr_service_requested").clear(hop.vc_index)
        port.status.vector("vbr_service_requested").clear(hop.vc_index)
        port.status.vector("connection_active").clear(hop.vc_index)
        port.mark_free(hop.vc_index)
        router.rau.release_connection(-session.session_id)
        router.admission.inputs[hop.entry_port].release(session.request)
        router.admission.outputs[hop.output_port].release(session.request)
        self.network.sim.schedule(
            CONTROL_HOP_CYCLES,
            self._teardown_step_event,
            (session.session_id, index + 1),
        )

    # ----- bookkeeping -----------------------------------------------------------------

    def forget(self, session: ProbeSession) -> None:
        """Drop a finished session from the registry (long churn runs would
        otherwise accumulate every session ever attempted)."""
        if session.finished_at is None:
            raise RuntimeError("cannot forget a session still in flight")
        if session.established:
            raise RuntimeError("cannot forget an established session")
        self.sessions.pop(session.session_id, None)
