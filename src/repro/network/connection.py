"""PCS connection management over a network (paper §3.1, §4.2).

Connection establishment sends a routing probe that walks the network
under exhaustive profitable backtracking, reserving a virtual channel and
link bandwidth at every hop; if the probe reaches the destination an
acknowledgment returns along the reverse mappings and the connection
opens.  If the search exhausts the minimal paths the probe backtracks to
the source and the request fails with all partial reservations released.

The probe walk is executed as a control-plane search against live router
state (admission registers, VC occupancy); its cost — links searched,
backtracks, hops — drives the establishment-latency model: the source may
start injecting only after ``probe cost + ack return`` cycles, matching
the PCS pipeline.  Data flits and credits then move cycle-accurately.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.bandwidth import BandwidthRequest
from ..core.virtual_channel import ServiceClass
from ..routing.epb import ProbeResult, epb_search
from .network import Network


@dataclass
class NetworkConnection:
    """An established multi-hop connection."""

    connection_id: int
    source: int
    destination: int
    request: BandwidthRequest
    service_class: ServiceClass
    #: Router path source..destination.
    path: List[int]
    #: Output port used at each router on the path.
    ports: List[int]
    #: Input VC index reserved at each router on the path.
    vcs: List[int]
    #: Input port at each router on the path (host port at the source).
    entry_ports: List[int]
    #: Cycle at which the source may start injecting (probe + ack).
    ready_at: int
    interarrival_cycles: float = 1.0
    probe: Optional[ProbeResult] = None
    closed: bool = False

    @property
    def hops(self) -> int:
        """Number of routers traversed."""
        return len(self.path)

    @property
    def source_vc(self) -> int:
        """The VC the source interface injects into."""
        return self.vcs[0]

    @property
    def source_entry_port(self) -> int:
        """The host input port at the source router."""
        return self.entry_ports[0]


@dataclass
class EstablishmentStats:
    """Aggregate probe statistics for reporting."""

    attempts: int = 0
    established: int = 0
    failed: int = 0
    links_searched: int = 0
    backtracks: int = 0
    setup_cycles: int = 0

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of attempts that produced a connection."""
        return self.established / self.attempts if self.attempts else 0.0


class ConnectionManager:
    """Establishes, renegotiates and tears down PCS connections."""

    #: Cycles a probe spends per link it examines (decode + header route).
    PROBE_CYCLES_PER_LINK = 2
    #: Cycles the returning acknowledgment spends per hop.
    ACK_CYCLES_PER_HOP = 1

    def __init__(self, network: Network, path_search=None) -> None:
        """``path_search`` selects the probe algorithm: any callable with
        the :func:`~repro.routing.epb.epb_search` signature
        ``(topology, source, destination, admissible) -> ProbeResult``,
        e.g. :func:`~repro.routing.dimension_order.dimension_order_search`
        for grid topologies.  Defaults to the EPB backtracking probe."""
        self.network = network
        self.path_search = epb_search if path_search is None else path_search
        self.stats = EstablishmentStats()
        self.connections: Dict[int, NetworkConnection] = {}
        self._ids = itertools.count(1)

    # ----- establishment ----------------------------------------------------

    def establish(
        self,
        source: int,
        destination: int,
        request: BandwidthRequest,
        service_class: ServiceClass = ServiceClass.CBR,
        interarrival_cycles: float = 1.0,
        static_priority: float = 0.0,
    ) -> Optional[NetworkConnection]:
        """Attempt to open a connection; returns it or None on failure."""
        if source == destination:
            raise ValueError("source and destination routers must differ")
        self.stats.attempts += 1
        if not self.feasible_endpoints(source, destination, request):
            # The source interface knows its own link and the destination
            # directory its egress; a probe is not even launched.
            self.stats.failed += 1
            return None
        connection_id = next(self._ids)
        probe = self.path_search(
            self.network.topology,
            source,
            destination,
            self._admissible(request),
        )
        self.stats.links_searched += probe.links_searched
        self.stats.backtracks += probe.backtracks
        if not probe.success:
            self.stats.failed += 1
            return None
        connection = self._reserve_path(
            connection_id,
            probe,
            request,
            service_class,
            interarrival_cycles,
            static_priority,
        )
        if connection is None:
            self.stats.failed += 1
            return None
        self.stats.established += 1
        self.stats.setup_cycles += connection.ready_at - self.network.sim.now
        self.connections[connection_id] = connection
        return connection

    def feasible_endpoints(
        self, source: int, destination: int, request: BandwidthRequest
    ) -> bool:
        """Can the host links at both ends carry this connection?

        Checks the source router's host-port ingress (register + free VC)
        and the destination router's host-port egress — the two hops a
        path-search predicate never sees.
        """
        topology = self.network.topology
        source_router = self.network.routers[source]
        host_in = topology.host_port(source)
        if source_router.input_ports[host_in].free_vc_count() == 0:
            return False
        if not source_router.admission.inputs[host_in].can_allocate(request):
            return False
        destination_router = self.network.routers[destination]
        host_out = topology.host_port(destination)
        return destination_router.admission.outputs[host_out].can_allocate(request)

    def _admissible(self, request: BandwidthRequest):
        network = self.network

        def check(node: int, out_port: int, next_node: int) -> bool:
            router = network.routers[node]
            if not router.admission.outputs[out_port].can_allocate(request):
                return False
            entry = network.topology.port_of(next_node, node)
            downstream = network.routers[next_node]
            if downstream.input_ports[entry].free_vc_count() == 0:
                return False
            return downstream.admission.inputs[entry].can_allocate(request)

        return check

    def _reserve_path(
        self,
        connection_id: int,
        probe: ProbeResult,
        request: BandwidthRequest,
        service_class: ServiceClass,
        interarrival_cycles: float,
        static_priority: float,
    ) -> Optional[NetworkConnection]:
        """Install reservations at every router on the probed path.

        Reservation proceeds destination-first so each router knows the
        downstream VC index when it installs its channel mapping — the
        order the returning acknowledgment establishes state in hardware.
        """
        topology = self.network.topology
        path = probe.path
        entry_ports = [topology.host_port(path[0])] + [
            topology.port_of(path[i], path[i - 1]) for i in range(1, len(path))
        ]
        out_ports = list(probe.ports) + [topology.host_port(path[-1])]
        reserved_vcs: List[Optional[int]] = [None] * len(path)
        downstream_vc = -1  # destination host port drains to the interface
        opened: List[int] = []
        for i in range(len(path) - 1, -1, -1):
            router = self.network.routers[path[i]]
            vc_index = router.open_connection(
                connection_id,
                entry_ports[i],
                out_ports[i],
                request,
                service_class=service_class,
                interarrival_cycles=interarrival_cycles,
                static_priority=static_priority,
                output_vc=downstream_vc,
            )
            if vc_index is None:
                # Raced against a concurrent reservation: roll back.
                for j in opened:
                    self.network.routers[path[j]].close_connection(
                        connection_id, entry_ports[j], reserved_vcs[j],
                        out_ports[j], request,
                    )
                return None
            reserved_vcs[i] = vc_index
            opened.append(i)
            downstream_vc = vc_index
        setup_cycles = (
            probe.links_searched * self.PROBE_CYCLES_PER_LINK
            + probe.hops * self.ACK_CYCLES_PER_HOP
        )
        return NetworkConnection(
            connection_id=connection_id,
            source=path[0],
            destination=path[-1],
            request=request,
            service_class=service_class,
            path=list(path),
            ports=out_ports,
            vcs=[vc for vc in reserved_vcs if vc is not None],
            entry_ports=entry_ports,
            ready_at=self.network.sim.now + setup_cycles,
            interarrival_cycles=interarrival_cycles,
            probe=probe,
        )

    # ----- teardown -------------------------------------------------------------

    def teardown(self, connection: NetworkConnection) -> None:
        """Release every hop of a connection (buffers must have drained)."""
        if connection.closed:
            raise RuntimeError(f"connection {connection.connection_id} already closed")
        for i, node in enumerate(connection.path):
            self.network.routers[node].close_connection(
                connection.connection_id,
                connection.entry_ports[i],
                connection.vcs[i],
                connection.ports[i],
                connection.request,
            )
        connection.closed = True
        self.connections.pop(connection.connection_id, None)

    # ----- dynamic bandwidth management (§4.3) ------------------------------------

    def renegotiate(
        self, connection: NetworkConnection, new_request: BandwidthRequest
    ) -> bool:
        """Apply a SET_BANDWIDTH control word along the whole path.

        All hops accept or the old contract stays everywhere (the control
        word would be NACKed where capacity is missing).
        """
        if connection.closed:
            raise RuntimeError("cannot renegotiate a closed connection")
        applied: List[int] = []
        for i, node in enumerate(connection.path):
            router = self.network.routers[node]
            ok = router.renegotiate_connection(
                connection.entry_ports[i],
                connection.vcs[i],
                connection.request,
                new_request,
            )
            if not ok:
                for j in applied:
                    back = self.network.routers[connection.path[j]]
                    if not back.renegotiate_connection(
                        connection.entry_ports[j],
                        connection.vcs[j],
                        new_request,
                        connection.request,
                    ):
                        raise RuntimeError("renegotiation rollback failed")
                return False
            applied.append(i)
        connection.request = new_request
        return True

    def set_priority(self, connection: NetworkConnection, priority: float) -> None:
        """Apply a SET_PRIORITY control word along the whole path."""
        for i, node in enumerate(connection.path):
            router = self.network.routers[node]
            entry_port = connection.entry_ports[i]
            vc_index = connection.vcs[i]
            router.input_ports[entry_port].vcs[
                vc_index
            ].static_priority = priority
            # Without this a parked head flit keeps its pre-change
            # priority terms until it drains.
            router.refresh_priority_terms(entry_port, vc_index)
