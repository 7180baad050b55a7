"""Multi-router MMR network (paper §1, §3.5).

Routers are instantiated per topology node and wired link-by-link:

* a flit leaving router ``u`` through port ``p`` arrives, after the link
  latency, in the matching virtual channel of router ``v``'s input port;
* credits flow the other way when the downstream VC frees a slot;
* host ports connect to :class:`~repro.network.interface.NetworkInterface`
  objects that inject traffic and collect end-to-end statistics.

Best-effort packets are routed hop by hop with the adaptive algorithm
(minimal adaptive hops with an up*/down* escape), reserving a virtual
channel at the next router before forwarding, exactly as §3.4 describes
("If the requested output link has free virtual channels at the next
router, a virtual channel is reserved ... otherwise the packet is
blocked").
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from ..core.config import RouterConfig
from ..core.flit import Flit, FlitType
from ..core.priority import PriorityScheme
from ..core.router import Router
from ..core.switch_scheduler import GreedyPriorityScheduler, SwitchScheduler
from ..core.virtual_channel import ServiceClass
from ..routing.adaptive import AdaptiveRouter
from ..routing.dimension_order import DimensionOrderRouter
from ..sim.engine import Simulator
from ..sim.rng import SeededRng
from ..sim.stats import StatsRegistry
from .topology import Topology

# Callback for flits reaching a host port: (node, host_port, flit).
HostDelivery = Callable[[int, int, Flit], None]

_BEST_EFFORT_FLIT = FlitType.BEST_EFFORT


class _LinkEnd:
    """Router ``node``'s end of the link on ``port``: its output handler
    (:meth:`send`) and the credit-return handler of its input VCs
    (:meth:`credit`, for the reverse direction) both land at the
    neighbour's ``remote_port``.  Lanes, clock and counters are resolved
    once at wiring time, so a call is one tuple and one append (DESIGN.md
    §7h).  A class (not closures) so networks pickle for checkpointing;
    the flit-in-flight travels as a lane record for the same reason.
    """

    __slots__ = ("sim", "lanes", "latency", "scalars", "node", "port",
                 "neighbor", "remote_port")

    def __init__(
        self, network: "Network", node: int, port: int, neighbor: int
    ) -> None:
        self.sim = network.sim
        self.lanes = network._lanes
        self.latency = network.link_latency
        self.scalars = network.stats.scalars
        self.node = node
        self.port = port
        self.neighbor = neighbor
        self.remote_port = network.topology.port_of(neighbor, node)

    def send(self, flit: Flit, output_vc: int) -> None:
        if output_vc < 0:
            raise RuntimeError(
                f"flit left router {self.node} port {self.port} without a "
                "downstream VC binding"
            )
        self.scalars["link_flits"] += 1
        record = (self.neighbor, self.remote_port, output_vc, flit)
        due = self.sim.now + self.latency
        try:
            self.lanes[due].append(record)
        except KeyError:
            self.lanes[due] = [record]

    def credit(self, vc_index: int) -> None:
        record = (self.neighbor, self.remote_port, vc_index)
        due = self.sim.now + self.latency
        try:
            self.lanes[due].append(record)
        except KeyError:
            self.lanes[due] = [record]


class _HostOutput:
    """Output handler for a host port: hands flits to the consumer
    :meth:`Network.set_host_delivery` resolved (picklable)."""

    __slots__ = ("scalars", "node", "port", "consumer")

    def __init__(
        self,
        network: "Network",
        node: int,
        port: int,
        consumer: Optional[HostDelivery] = None,
    ) -> None:
        self.scalars = network.stats.scalars
        self.node = node
        self.port = port
        self.consumer = consumer

    def __call__(self, flit: Flit, output_vc: int) -> None:
        self.scalars["host_deliveries"] += 1
        consumer = self.consumer
        if consumer is not None:
            consumer(self.node, self.port, flit)


class Network:
    """A cluster of MMR routers over a :class:`Topology`."""

    def __init__(
        self,
        topology: Topology,
        config: RouterConfig,
        scheme: PriorityScheme,
        sim: Simulator,
        rng: SeededRng,
        scheduler_factory: Optional[Callable[[int], SwitchScheduler]] = None,
        link_latency: int = 1,
        selection: str = "per_output",
        recorder=None,
        routing: str = "adaptive",
    ) -> None:
        """``recorder`` (a :class:`repro.obs.FlightRecorder`) is shared by
        every router; its telemetry channels are namespaced by router name
        (``router3.link_utilisation``) so per-node series stay separate.

        ``routing`` selects the best-effort and connection routing
        discipline: ``"adaptive"`` (minimal adaptive + up*/down* escape,
        the default) or ``"dimension_order"`` (XY, grid topologies only)."""
        if link_latency < 1:
            raise ValueError(f"link_latency must be >= 1, got {link_latency}")
        if config.num_ports < topology.num_ports:
            raise ValueError(
                f"router has {config.num_ports} ports but topology needs "
                f"{topology.num_ports}"
            )
        self.topology = topology
        self.config = config
        self.sim = sim
        self.rng = rng
        self.link_latency = link_latency
        self.stats = StatsRegistry()
        # The link handlers hold this dict (and ``_lanes`` below) by
        # reference and bump their counters in place: never rebind either.
        self.stats.scalars.update(link_flits=0, host_deliveries=0)
        self.adaptive = AdaptiveRouter(topology)
        if routing not in ("adaptive", "dimension_order"):
            raise ValueError(f"unknown routing discipline {routing!r}")
        self.routing = routing
        self.dimension_order = (
            DimensionOrderRouter(topology) if routing == "dimension_order" else None
        )
        # The link plane: due cycle -> records in emission order, an
        # arrival ``(node, port, vc, flit)`` or a credit ``(node, port,
        # vc)``.  In-flight flits and credits are real state, so lanes
        # are pickled with the network.  The ticker that drains them is
        # registered *before* the routers: arrivals and credits land
        # after the cycle's heap events and before any router ticks.
        self._lanes: Dict[int, list] = {}
        sim.add_ticker(self._tick, activity=self._active, name="network-links")
        if scheduler_factory is None:
            scheduler_factory = lambda node: GreedyPriorityScheduler()  # noqa: E731
        self.routers: List[Router] = [
            Router(
                config,
                scheme,
                scheduler_factory(node),
                sim,
                name=f"router{node}",
                selection=selection,
                rng=rng.spawn(f"router{node}"),
                sink_outputs=False,
                recorder=recorder,
            )
            for node in range(topology.num_nodes)
        ]
        self.recorder = recorder
        if recorder is not None:
            recorder.attach(sim)
        self._host_delivery: Dict[Tuple[int, int], HostDelivery] = {}
        # Pending unrouted best-effort packets per router: (port, vc_index).
        self._unrouted: Dict[int, List[Tuple[int, int]]] = {}
        self._wire()

    # ----- link plane -------------------------------------------------------

    def _tick(self, cycle: int) -> None:
        """Land the flits and credits due this cycle, in emission order.

        Registered before the routers, so a router an arrival wakes is
        stepped in this same cycle."""
        records = self._lanes.pop(cycle, None)
        if records is not None:
            routers = self.routers
            for record in records:
                if len(record) == 3:
                    node, port, vc_index = record
                    routers[node].output_flow[port].replenish(vc_index)
                    continue
                node, port, vc_index, flit = record
                if flit.flit_type is _BEST_EFFORT_FLIT:
                    self._arrive(node, port, vc_index, flit)
                elif not routers[node].inject(port, vc_index, flit):
                    raise RuntimeError(
                        f"credited flit refused at router {node} port {port} "
                        f"vc {vc_index}"
                    )

    def _active(self) -> bool:
        """Pending lanes keep the kernel stepping: fast-forward can never
        jump over an in-flight flit or credit."""
        return bool(self._lanes)

    def _on_lanes(self, record_length: int) -> int:
        return sum(
            len(record) == record_length
            for lane in self._lanes.values()
            for record in lane
        )

    def flits_in_flight(self) -> int:
        """Flits currently crossing links."""
        return self._on_lanes(4)

    def credits_in_flight(self) -> int:
        """Credits currently crossing links upstream."""
        return self._on_lanes(3)

    # ----- wiring -----------------------------------------------------------

    def _wire(self) -> None:
        for node in range(self.topology.num_nodes):
            router = self.routers[node]
            for port in range(self.config.num_ports):
                neighbor = self.topology.neighbor_on_port(node, port)
                if neighbor is not None:
                    end = _LinkEnd(self, node, port, neighbor)
                    router.set_output_handler(port, end.send)
                    router.set_credit_return_handler(port, end.credit)
                else:
                    router.set_output_handler(port, _HostOutput(self, node, port))

    def set_host_delivery(self, node: int, port: int, handler: HostDelivery) -> None:
        """Attach a consumer (network interface) to a host port.

        The port's output handler is rebuilt around ``handler``, so the
        per-flit path looks nothing up; registering again replaces it.
        """
        if self.topology.neighbor_on_port(node, port) is not None:
            raise ValueError(f"port {port} of node {node} is a link port")
        self._host_delivery[(node, port)] = handler
        self.routers[node].set_output_handler(
            port, _HostOutput(self, node, port, handler)
        )

    def close(self) -> None:
        """Unwire the link plane and the host consumers, and close the
        kernel (:meth:`Simulator.close`).

        The routers' output and credit-return handlers and the host
        delivery hooks point back into the network and its interfaces;
        without them a finished network is a tree that reference
        counting frees.  Routers and statistics stay readable.
        """
        self.sim.close()
        unwired = [None] * self.config.num_ports
        for router in self.routers:
            router.output_handlers[:] = unwired
            router.credit_return_handlers[:] = unwired
        self._host_delivery.clear()

    # ----- arrivals -----------------------------------------------------------

    def _arrive(self, node: int, port: int, vc_index: int, flit: Flit) -> None:
        """A best-effort flit finished crossing a link into router ``node``.

        Route the packet now (§3.4): its VC was reserved by the upstream
        router with no output assigned yet.  Connection flits need no
        routing and are injected by :meth:`_tick` directly.
        """
        if not self.routers[node].inject(port, vc_index, flit):
            raise RuntimeError(
                f"credited flit refused at router {node} port {port}"
            )
        self._route_best_effort(node, port, vc_index)

    # ----- best-effort routing -------------------------------------------------

    def inject_best_effort(
        self, node: int, host_port: int, flit: Flit, destination: int
    ) -> bool:
        """Inject a best-effort packet at a host port; returns acceptance.

        The packet takes a free VC on the host input port and is routed
        immediately.  Returns False when no VC is free (the interface must
        retry — back-pressure to the host).
        """
        router = self.routers[node]
        vc_index = router.open_packet_vc(
            host_port, -1, ServiceClass.BEST_EFFORT, flit.connection_id
        )
        if vc_index is None:
            return False
        flit.argument = destination  # destination rides in the header field
        accepted = router.inject(host_port, vc_index, flit)
        if not accepted:
            raise RuntimeError("freshly opened packet VC refused its flit")
        self._route_best_effort(node, host_port, vc_index)
        return True

    def _route_best_effort(self, node: int, port: int, vc_index: int) -> None:
        """Assign an output (and downstream VC) to an unrouted packet."""
        router = self.routers[node]
        vc = router.input_ports[port].vcs[vc_index]
        flit = vc.head()
        if flit is None:
            return  # already forwarded (e.g. cut through) — nothing to do
        if vc.output_port >= 0:
            return  # already routed; a stale retry must not re-reserve
        destination = flit.argument
        if destination == node:
            # Deliver locally through the (first) host port.
            router.assign_route(port, vc_index, self.topology.host_port(node))
            return
        arrived_up = None
        neighbor = self.topology.neighbor_on_port(node, port)
        if neighbor is not None:
            arrived_up = self.adaptive.updown.is_up(neighbor, node)
        chooser = self.dimension_order or self.adaptive
        for choice in chooser.choices(node, destination, arrived_up):
            next_router = self.routers[choice.next_node]
            entry_port = self.topology.port_of(choice.next_node, node)
            reserved = next_router.open_packet_vc(
                entry_port, -1, ServiceClass.BEST_EFFORT, flit.connection_id
            )
            if reserved is None:
                continue
            router.assign_route(port, vc_index, choice.output_port, reserved)
            self.stats.counter("be_hops_routed")
            return
        # Blocked: every candidate next router is out of VCs.  Retry next
        # cycle — the packet stays buffered in its VC (§3.4).
        self.stats.counter("be_blocked")
        self.sim.schedule(1, self._route_best_effort_event, (node, port, vc_index))

    def _route_best_effort_event(self, payload: Tuple[int, int, int]) -> None:
        """Event trampoline: retry routing a blocked best-effort packet."""
        self._route_best_effort(*payload)

    # ----- reporting --------------------------------------------------------------

    def check_invariants(self) -> None:
        """Every router's invariants plus exact link conservation.

        For each directed link and each downstream VC, the upstream
        router's credits, the flits on the link, the flits buffered
        downstream and the credits on their way back add up to the VC
        buffer depth — no slot is ever lost or counted twice.  Raises
        ``AssertionError`` on the first violation.
        """
        for router in self.routers:
            router.check_invariants()
        # (node, port, vc) -> records on the lanes addressed there:
        # flits by downstream input VC, credits by upstream output VC.
        flits: Counter = Counter()
        credits: Counter = Counter()
        for lane in self._lanes.values():
            for record in lane:
                (flits if len(record) == 4 else credits)[record[:3]] += 1
        depth = self.config.vc_buffer_flits
        for node, router in enumerate(self.routers):
            for port, flow in enumerate(router.output_flow):
                neighbor = self.topology.neighbor_on_port(node, port)
                if neighbor is None:
                    continue
                remote_port = self.topology.port_of(neighbor, node)
                vcs = self.routers[neighbor].input_ports[remote_port].vcs
                for index in range(self.config.vcs_per_port):
                    vc = vcs[index] if vcs else None
                    unbuilt = "" if vc is not None else "VC" if vcs else "port"
                    parts = (
                        flow.credits(index),
                        flits[neighbor, remote_port, index],
                        0 if unbuilt else vc.occupancy,
                        credits[node, port, index],
                    )
                    # An unbuilt port or VC was never bound, so nothing was
                    # sent into it: every credit is home and nothing in flight.
                    assert (
                        parts == (depth, 0, 0, 0) if unbuilt else sum(parts) == depth
                    ), (
                        f"link {node}.{port} -> {neighbor}.{remote_port} vc "
                        f"{index}: credits + flits on link + buffered + "
                        f"credits returning = {parts} != {depth}"
                        f"{f' ({unbuilt} unbuilt: all credits home)' if unbuilt else ''}"
                    )

    def total_buffered(self) -> int:
        """Flits buffered across every router (drain checks)."""
        return sum(router.buffered_flits() for router in self.routers)

    def aggregate_utilisation(self) -> float:
        """Mean switch utilisation across routers."""
        if not self.routers:
            return 0.0
        return sum(r.utilisation() for r in self.routers) / len(self.routers)
