"""Network-level QoS experiments (paper §6 — the MMR project's next step).

The paper evaluates a single router and closes by turning "to supported
VBR traffic and best-effort traffic" in networks.  This harness runs the
natural extension study: CBR connections established by EPB across a
multi-router cluster, measuring end-to-end delay and jitter as functions
of network load and hop count, optionally with best-effort background
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.bandwidth import BandwidthAllocator
from ..core.config import RouterConfig
from ..core.priority import make_priority_scheme
from ..network.connection import ConnectionManager, NetworkConnection
from ..network.interface import NetworkInterface, OpenStream
from ..network.network import Network
from ..network.topology import Topology, irregular, mesh, torus
from ..obs import FlightRecorder
from ..routing.dimension_order import dimension_order_search
from ..sim.engine import Simulator
from ..sim.rng import SeededRng
from ..sim.stats import RunningStats
from .resumable import Resumable

#: Grid topology constructors selectable by spec string.
_GRID_TOPOLOGIES = {"mesh": mesh, "torus": torus}


def parse_topology(name: str) -> Tuple[str, Optional[Tuple[int, int]]]:
    """Parse a spec topology string into ``(kind, dims)``.

    ``"irregular"`` -> ``("irregular", None)``; ``"mesh8x8"`` ->
    ``("mesh", (8, 8))``; ``"torus16x16"`` -> ``("torus", (16, 16))``.
    """
    if name == "irregular":
        return "irregular", None
    for kind in _GRID_TOPOLOGIES:
        if name.startswith(kind):
            parts = name[len(kind):].split("x")
            if len(parts) == 2 and all(p.isdigit() for p in parts):
                return kind, (int(parts[0]), int(parts[1]))
    raise ValueError(
        f"unknown topology {name!r}: expected 'irregular', "
        "'mesh<W>x<H>' or 'torus<W>x<H>'"
    )


def build_spec_topology(spec: "NetworkExperimentSpec", rng: SeededRng) -> Topology:
    """Construct the topology a spec names.

    Grid topologies define their own node count; ``num_nodes`` and
    ``mean_degree`` only shape the irregular default.
    """
    kind, dims = parse_topology(spec.topology)
    if kind == "irregular":
        return irregular(spec.num_nodes, rng, mean_degree=spec.mean_degree)
    return _GRID_TOPOLOGIES[kind](*dims)


@dataclass(frozen=True)
class NetworkExperimentSpec:
    """One network-level experiment point."""

    #: Target mean utilisation of router-to-router links (0..1).
    target_link_load: float
    num_nodes: int = 12
    mean_degree: float = 3.0
    priority: str = "biased"
    #: Best-effort packets per node per 100 cycles (0 disables).
    best_effort_rate: float = 0.0
    vcs_per_port: int = 64
    round_factor: int = 8
    warmup_cycles: int = 5000
    measure_cycles: int = 20000
    seed: int = 1
    # Attach a shared flight recorder across all routers (see
    # ExperimentSpec.telemetry).
    telemetry: bool = False
    #: ``"irregular"`` (default), ``"mesh<W>x<H>"`` or ``"torus<W>x<H>"``.
    #: Grid topologies fix their own node count; ``num_nodes`` and
    #: ``mean_degree`` apply to the irregular default only.
    topology: str = "irregular"
    #: ``"adaptive"`` (EPB probe + minimal-adaptive best-effort) or
    #: ``"dimension_order"`` (deterministic XY; grid topologies only).
    routing: str = "adaptive"

    def __post_init__(self) -> None:
        if not 0.0 < self.target_link_load <= 1.0:
            raise ValueError(
                f"target_link_load must be in (0, 1], got {self.target_link_load}"
            )
        if self.num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.num_nodes}")
        if self.best_effort_rate < 0:
            raise ValueError(
                f"best_effort_rate must be >= 0, got {self.best_effort_rate}"
            )
        if self.routing not in ("adaptive", "dimension_order"):
            raise ValueError(
                f"routing must be 'adaptive' or 'dimension_order', got {self.routing!r}"
            )
        kind, _ = parse_topology(self.topology)
        if self.routing == "dimension_order" and kind == "irregular":
            raise ValueError(
                "dimension_order routing needs a mesh/torus grid topology"
            )


@dataclass
class NetworkExperimentResult:
    """Measured outcome of one network experiment."""

    spec: NetworkExperimentSpec
    streams: int
    attempts: int
    mean_hops: float
    #: End-to-end per-flit statistics across all delivered stream flits.
    delay_cycles: RunningStats
    jitter_cycles: RunningStats
    #: Grouped by path length.
    by_hops: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    best_effort_delivered: int = 0
    links_searched: int = 0
    backtracks: int = 0
    #: The shared flight recorder, when ``spec.telemetry`` asked for one.
    recorder: Optional[FlightRecorder] = None
    #: Checkpoint lineage, when the run was checkpointed or resumed:
    #: path, resumed_from_cycle (None for a straight run), and how many
    #: checkpoints were written.  Merged into sweep manifests.
    checkpoint: Optional[Dict[str, Any]] = None

    @property
    def acceptance_ratio(self) -> float:
        """Established streams over establishment attempts."""
        return self.streams / self.attempts if self.attempts else 0.0

    @property
    def mean_delay_cycles(self) -> float:
        """Flit-weighted mean end-to-end delay, in cycles."""
        return self.delay_cycles.mean

    @property
    def mean_jitter_cycles(self) -> float:
        """Flit-weighted mean end-to-end jitter, in cycles."""
        return self.jitter_cycles.mean

    @property
    def delay_per_hop(self) -> float:
        """Mean end-to-end delay normalised by mean path length."""
        return self.delay_cycles.mean / self.mean_hops if self.mean_hops else 0.0


class NetworkExperiment(Resumable):
    """A network-level evaluation point as a resumable object.

    Construction builds and loads the cluster (stream admission is
    synchronous); ``run_to``, ``checkpoint`` and ``resume``
    (:class:`~repro.harness.resumable.Resumable`) advance it across the
    warm-up boundary exactly once and round-trip the whole cluster — all
    routers, links in flight, interfaces and the best-effort chatter
    events.
    """

    KIND = "network"
    MANIFEST_FIELDS = ("num_nodes", "target_link_load", "warmup_cycles", "measure_cycles")
    SPEC = NetworkExperimentSpec
    SWEEP_COLUMNS = ("mean_delay_cycles", "mean_jitter_cycles", "acceptance_ratio")
    SUMMARY_FIELDS = {
        "streams": "streams",
        "acceptance_ratio": "acceptance_ratio",
        "mean_hops": "mean_hops",
        "mean_delay_cycles": "mean_delay_cycles",
        "delay_per_hop_cycles": "delay_per_hop",
        "mean_jitter_cycles": "mean_jitter_cycles",
        "best_effort_delivered": "best_effort_delivered",
        "links_searched": "links_searched",
        "backtracks": "backtracks",
    }

    def __init__(
        self,
        spec: NetworkExperimentSpec,
        topology: Optional[Topology] = None,
    ) -> None:
        rng = SeededRng(spec.seed, "network-experiment")
        if topology is None:
            topology = build_spec_topology(spec, rng.spawn("topology"))
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
            routing=spec.routing,
        )
        manager = ConnectionManager(
            network,
            path_search=(
                dimension_order_search
                if spec.routing == "dimension_order"
                else None
            ),
        )
        interfaces = [
            NetworkInterface(network, manager, node, rng=rng.spawn(f"ni{node}"))
            for node in range(topology.num_nodes)
        ]

        # Admit streams until the mean router-to-router link utilisation
        # reaches the target (or admissions stop succeeding).
        demand_rng = rng.spawn("demand")
        streams: List[Tuple[int, OpenStream]] = []
        attempts = 0
        consecutive_failures = 0
        load = _LinkLoad(network, spec.target_link_load)
        while consecutive_failures < 25:
            if load.reached():
                break
            src = demand_rng.randint(0, topology.num_nodes - 1)
            dst = demand_rng.randint(0, topology.num_nodes - 1)
            if src == dst:
                continue
            attempts += 1
            rate = demand_rng.choice((5e6, 20e6, 55e6, 120e6))
            stream = interfaces[src].open_cbr(dst, rate)
            if stream is None:
                consecutive_failures += 1
                continue
            consecutive_failures = 0
            streams.append((dst, stream))
            load.add(stream.connection)

        self.spec = spec
        self.topology = topology
        self.config = config
        self.sim = sim
        self.recorder = recorder
        self.network = network
        self.manager = manager
        self.interfaces = interfaces
        self.streams = streams
        self.attempts = attempts
        self._be_rng = None
        self._be_interval = 0.0

        if spec.best_effort_rate > 0:
            self._be_rng = rng.spawn("be")
            self._be_interval = 100.0 / spec.best_effort_rate
            for node in range(topology.num_nodes):
                sim.schedule(1 + node, self._chatter)

    def _chatter(self) -> None:
        """Self-rescheduling best-effort background traffic (a bound
        method, not a closure, so pending chatter events checkpoint)."""
        be_rng = self._be_rng
        num_nodes = self.topology.num_nodes
        src = be_rng.randint(0, num_nodes - 1)
        dst = be_rng.randint(0, num_nodes - 1)
        if src != dst:
            self.interfaces[src].send_best_effort(dst)
        self.sim.schedule(
            max(1, round(be_rng.expovariate(1.0 / self._be_interval))),
            self._chatter,
        )

    def close(self) -> None:
        self.network.close()

    def _start_measurement(self) -> None:
        for ni in self.interfaces:
            ni.end_to_end.clear()
            ni.flits_received = 0
            ni.packets_received = 0
        if self.recorder is not None:
            self.recorder.clear()

    def result(self) -> NetworkExperimentResult:
        """Summarise the (completed) run; runs any remaining cycles."""
        self.run_to(self.total_cycles)
        interfaces = self.interfaces
        delay = RunningStats()
        jitter = RunningStats()
        hop_groups: Dict[int, Tuple[RunningStats, RunningStats]] = {}
        hops_total = 0.0
        for dst, stream in self.streams:
            stats = interfaces[dst].end_to_end.get(stream.connection.connection_id)
            hops_total += stream.connection.hops
            if stats is None or stats.flits == 0:
                continue
            delay.merge(_clone(stats.delay))
            jitter.merge(_clone(stats.jitter))
            hops = stream.connection.hops
            if hops not in hop_groups:
                hop_groups[hops] = (RunningStats(), RunningStats())
            hop_groups[hops][0].merge(_clone(stats.delay))
            hop_groups[hops][1].merge(_clone(stats.jitter))
        return NetworkExperimentResult(
            spec=self.spec,
            streams=len(self.streams),
            attempts=self.attempts,
            mean_hops=hops_total / len(self.streams) if self.streams else 0.0,
            delay_cycles=delay,
            jitter_cycles=jitter,
            by_hops={
                hops: (d.mean, j.mean) for hops, (d, j) in sorted(hop_groups.items())
            },
            best_effort_delivered=sum(ni.packets_received for ni in interfaces),
            links_searched=self.manager.stats.links_searched,
            backtracks=self.manager.stats.backtracks,
            recorder=self.recorder,
        )


def run_network_experiment(
    spec: NetworkExperimentSpec,
    topology: Optional[Topology] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path=None,
    resume: bool = False,
    _crash_at_cycle: Optional[int] = None,
) -> NetworkExperimentResult:
    """Build the cluster, load it with CBR streams to the target link
    utilisation, run, and summarise end-to-end QoS.

    The checkpoint arguments are those of
    :meth:`~repro.harness.resumable.Resumable.run`.
    """
    return NetworkExperiment.run(
        spec,
        topology,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume=resume,
        crash_at_cycle=_crash_at_cycle,
    )


class _LoggedDelivery:
    """Host-delivery wrapper that fingerprints flits into a shared list
    (a bound class, not a closure, so wrapped handlers checkpoint)."""

    __slots__ = ("sim", "log", "inner")

    def __init__(self, sim: Simulator, log: List[tuple], inner) -> None:
        self.sim = sim
        self.log = log
        self.inner = inner

    def __call__(self, node: int, port: int, flit) -> None:
        self.log.append(
            (self.sim.now, node, port, flit.connection_id, flit.sequence,
             flit.created)
        )
        self.inner(node, port, flit)


def attach_delivery_log(experiment: NetworkExperiment) -> List[tuple]:
    """Record every host-delivered flit, in delivery order.

    Returns a live list of ``(cycle, node, port, connection_id,
    sequence, created)`` tuples — the delivered-flit stream the
    identity checks compare bit-for-bit.  (Flit ids are process-global
    and differ between runs, so the fingerprint uses per-connection
    sequence numbers instead.)
    """
    log: List[tuple] = []
    network = experiment.network
    # Through set_host_delivery, not the registry dict: the host ports'
    # output handlers hold their consumer directly.
    for (node, port), handler in list(network._host_delivery.items()):
        network.set_host_delivery(
            node, port, _LoggedDelivery(network.sim, log, handler)
        )
    return log


def _router_links(network: Network, topology: Topology) -> List[BandwidthAllocator]:
    """The admission allocators of every router-to-router output link,
    in node then port order."""
    return [
        network.routers[node].admission.outputs[port]
        for node in range(topology.num_nodes)
        for port in range(topology.num_ports)
        if topology.neighbor_on_port(node, port) is not None
    ]


class _LinkLoad:
    """Whether admission has reached the target mean utilisation of the
    router-to-router links (:func:`_router_links`), decided as
    :func:`_mean_link_utilisation` decides it but in O(1) per attempt
    away from the target.

    An integer running total of the cycles committed on those links puts
    the mean exactly; only when it puts the mean within one link's share
    of the target (one full link, ``round_length`` cycles) is the float
    sum re-taken in list order, so every decision is bit-identical to
    summing on every attempt.
    """

    def __init__(self, network: Network, target: float) -> None:
        self.topology = network.topology
        self.links = _router_links(network, self.topology)
        self.round_length = network.config.round_length
        self.target = target
        self.allocated = sum(allocator.allocated_cycles for allocator in self.links)
        #: The target as committed cycles over all links.
        self.target_cycles = target * self.round_length * len(self.links)

    def add(self, connection: NetworkConnection) -> None:
        """Count a newly admitted connection's reservation on each
        router-to-router link of its path."""
        neighbor_on_port = self.topology.neighbor_on_port
        for node, port in zip(connection.path, connection.ports):
            if neighbor_on_port(node, port) is not None:
                self.allocated += connection.request.permanent_cycles

    def reached(self) -> bool:
        gap = self.allocated - self.target_cycles
        if gap >= self.round_length:
            return True
        if gap <= -self.round_length:
            return False
        return _mean_link_utilisation(self.links) >= self.target


def _mean_link_utilisation(links: List[BandwidthAllocator]) -> float:
    """Mean committed utilisation over ``links`` (see :func:`_router_links`),
    summed in list order so repeated calls agree bit for bit."""
    total = 0.0
    for allocator in links:
        total += allocator.utilisation
    return total / len(links) if links else 0.0


def _clone(stats: RunningStats) -> RunningStats:
    clone = RunningStats()
    clone.merge(stats)
    return clone
