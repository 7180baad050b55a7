"""Network topologies (paper §1-2: clusters and LANs, often irregular).

A :class:`Topology` is an undirected multigraph of routers plus the port
assignment at each router: one port per incident link, with the remaining
ports available for host network interfaces.  Constructors cover the
regular shapes used by multiprocessor interconnects (mesh, torus,
hypercube, ring) and the random irregular graphs typical of switch-based
LAN clusters (the setting of the Silla/Duato adaptive-routing work the MMR
adopts for best-effort traffic).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.rng import SeededRng


class TopologyError(ValueError):
    """Raised for malformed topology descriptions."""


class DisconnectedError(TopologyError):
    """Raised by :meth:`Topology.distance` for two nodes with no path."""


class Topology:
    """An undirected router graph with deterministic port numbering.

    Ports ``0..degree-1`` of each node attach to its links in neighbor
    order; ports ``degree..num_ports-1`` are host ports.  All routers
    share one ``num_ports`` (the router is a single chip with a fixed
    degree); it defaults to ``max_degree + 1`` so every node has at least
    one host port.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        num_ports: Optional[int] = None,
        name: str = "custom",
    ) -> None:
        if num_nodes <= 0:
            raise TopologyError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = num_nodes
        self.name = name
        self._adjacency: List[List[int]] = [[] for _ in range(num_nodes)]
        seen = set()
        for a, b in edges:
            if not (0 <= a < num_nodes and 0 <= b < num_nodes):
                raise TopologyError(f"edge ({a}, {b}) out of range")
            if a == b:
                raise TopologyError(f"self-loop at node {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise TopologyError(f"duplicate edge {key}")
            seen.add(key)
            self._adjacency[a].append(b)
            self._adjacency[b].append(a)
        for neighbors in self._adjacency:
            neighbors.sort()
        max_degree = max((len(n) for n in self._adjacency), default=0)
        if num_ports is None:
            num_ports = max_degree + 1
        if num_ports < max_degree + 1:
            raise TopologyError(
                f"num_ports={num_ports} leaves no host port at degree-"
                f"{max_degree} nodes"
            )
        self.num_ports = num_ports
        self._port_of: List[Dict[int, int]] = [
            {neighbor: port for port, neighbor in enumerate(neighbors)}
            for neighbors in self._adjacency
        ]
        self._port_to_neighbor: List[Dict[int, int]] = [
            {port: neighbor for neighbor, port in mapping.items()}
            for mapping in self._port_of
        ]
        # Port numbering is frozen at construction: a removed (failed)
        # link leaves its port dead rather than renumbering live ports.
        self._initial_degree: List[int] = [len(n) for n in self._adjacency]
        self._distances: Optional[List[List[int]]] = None

    # ----- structure ---------------------------------------------------------

    def neighbors(self, node: int) -> List[int]:
        """Adjacent routers of ``node`` (sorted)."""
        self._check(node)
        return list(self._adjacency[node])

    def degree(self, node: int) -> int:
        """Number of router-to-router links at ``node``."""
        self._check(node)
        return len(self._adjacency[node])

    def port_of(self, node: int, neighbor: int) -> int:
        """The port of ``node`` that attaches to ``neighbor``."""
        self._check(node)
        try:
            return self._port_of[node][neighbor]
        except KeyError:
            raise TopologyError(f"no link between {node} and {neighbor}") from None

    def neighbor_on_port(self, node: int, port: int) -> Optional[int]:
        """The router at the far end of ``port``.

        None for host ports and for ports whose link has failed.
        """
        self._check(node)
        return self._port_to_neighbor[node].get(port)

    def host_port(self, node: int) -> int:
        """The first host port of ``node`` (stable across link failures)."""
        self._check(node)
        return self._initial_degree[node]

    def host_ports(self, node: int) -> List[int]:
        """All host ports of ``node`` (stable across link failures)."""
        self._check(node)
        return list(range(self._initial_degree[node], self.num_ports))

    def edges(self) -> List[Tuple[int, int]]:
        """All links as (low node, high node) pairs, sorted."""
        out = []
        for a in range(self.num_nodes):
            for b in self._adjacency[a]:
                if a < b:
                    out.append((a, b))
        return out

    def is_connected(self) -> bool:
        """True when every router can reach every other."""
        if self.num_nodes == 0:
            return True
        seen = {0}
        frontier = deque([0])
        while frontier:
            node = frontier.popleft()
            for neighbor in self._adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == self.num_nodes

    # ----- distances ---------------------------------------------------------

    def distance(self, a: int, b: int) -> int:
        """Hop distance between routers (BFS, cached)."""
        self._check(a)
        self._check(b)
        if self._distances is None:
            self._distances = [self._bfs(node) for node in range(self.num_nodes)]
        d = self._distances[a][b]
        if d < 0:
            raise DisconnectedError(f"nodes {a} and {b} are disconnected")
        return d

    def _bfs(self, start: int) -> List[int]:
        dist = [-1] * self.num_nodes
        dist[start] = 0
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for neighbor in self._adjacency[node]:
                if dist[neighbor] < 0:
                    dist[neighbor] = dist[node] + 1
                    frontier.append(neighbor)
        return dist

    def invalidate_distances(self) -> None:
        """Drop the distance cache (after removing a link, e.g. failures)."""
        self._distances = None

    def remove_link(self, a: int, b: int) -> None:
        """Fail the link between ``a`` and ``b``.

        Port numbering is untouched: the two ports become dead
        (``neighbor_on_port`` returns None) so routers wired to the old
        numbering remain consistent.
        """
        self._check(a)
        self._check(b)
        if b not in self._port_of[a]:
            raise TopologyError(f"no link between {a} and {b}")
        self._adjacency[a].remove(b)
        self._adjacency[b].remove(a)
        del self._port_to_neighbor[a][self._port_of[a].pop(b)]
        del self._port_to_neighbor[b][self._port_of[b].pop(a)]
        self.invalidate_distances()

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(f"node {node} out of range [0, {self.num_nodes})")

    def __repr__(self) -> str:
        return (
            f"Topology({self.name}, nodes={self.num_nodes}, "
            f"links={len(self.edges())}, ports={self.num_ports})"
        )


# ----- constructors ------------------------------------------------------------


def ring(num_nodes: int, num_ports: Optional[int] = None) -> Topology:
    """A bidirectional ring."""
    if num_nodes < 3:
        raise TopologyError(f"a ring needs at least 3 nodes, got {num_nodes}")
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    return Topology(num_nodes, edges, num_ports, name=f"ring{num_nodes}")


def mesh(width: int, height: int, num_ports: Optional[int] = None) -> Topology:
    """A width x height 2D mesh."""
    if width <= 0 or height <= 0:
        raise TopologyError("mesh dimensions must be positive")
    edges = []
    for y in range(height):
        for x in range(width):
            node = y * width + x
            if x + 1 < width:
                edges.append((node, node + 1))
            if y + 1 < height:
                edges.append((node, node + width))
    topo = Topology(width * height, edges, num_ports, name=f"mesh{width}x{height}")
    # Grid metadata for dimension-order routing (node = y * width + x).
    # Plain attributes, so topologies pickled before they existed restore
    # fine; consumers read them with getattr(topology, "grid", None).
    topo.grid = (width, height)
    topo.wrap = False
    return topo


def torus(width: int, height: int, num_ports: Optional[int] = None) -> Topology:
    """A width x height 2D torus (wraparound mesh).

    In a dimension of size 2 the wrap-around link connects the same
    router pair as the mesh link, so the edge set is deduplicated there:
    those routers get one physical link (and one port) per such
    neighbor, not a double link with a misleading port count.  Size-1
    dimensions would require self-loops and raise.

    Edges are emitted in the historical per-node order (dedup only
    removes the size-2 wrap duplicates), so pre-existing tori build
    identically to prior releases.  Port numbering is derived from the
    sorted adjacency sets and is order-independent anyway.
    """
    if width < 2 or height < 2:
        raise TopologyError(
            "torus dimensions must be at least 2 (a size-1 dimension "
            "would wrap a node onto itself)"
        )
    edges = []
    seen = set()
    for y in range(height):
        for x in range(width):
            node = y * width + x
            for other in (
                y * width + (x + 1) % width,
                ((y + 1) % height) * width + x,
            ):
                key = (min(node, other), max(node, other))
                if key in seen:
                    continue  # size-2 dimension: wrap == mesh edge
                seen.add(key)
                edges.append((node, other))
    topo = Topology(
        width * height, edges, num_ports, name=f"torus{width}x{height}"
    )
    topo.grid = (width, height)
    topo.wrap = True
    return topo


def hypercube(dimension: int, num_ports: Optional[int] = None) -> Topology:
    """A binary hypercube of the given dimension."""
    if dimension <= 0:
        raise TopologyError(f"dimension must be positive, got {dimension}")
    nodes = 1 << dimension
    edges = []
    for node in range(nodes):
        for bit in range(dimension):
            other = node ^ (1 << bit)
            if node < other:
                edges.append((node, other))
    return Topology(nodes, edges, num_ports, name=f"hypercube{dimension}")


def irregular(
    num_nodes: int,
    rng: SeededRng,
    mean_degree: float = 3.0,
    num_ports: Optional[int] = None,
    max_tries: int = 200,
) -> Topology:
    """A connected random irregular topology (switch-based LAN cluster).

    Starts from a random spanning tree (guaranteeing connectivity, as ad
    hoc LAN wiring grows) and adds random extra links until the mean
    degree is reached.  If the try budget runs out before the target link
    count is reached (the requested density may even exceed the complete
    graph), :class:`TopologyError` is raised naming the achieved versus
    requested link counts — a silently sparser graph would skew every
    blocking/latency figure computed on it.
    """
    if num_nodes < 2:
        raise TopologyError(f"need at least 2 nodes, got {num_nodes}")
    if mean_degree < 2.0 * (num_nodes - 1) / num_nodes:
        raise TopologyError(f"mean_degree {mean_degree} below tree degree")
    nodes = list(range(num_nodes))
    rng.shuffle(nodes)
    edges = set()
    for i in range(1, num_nodes):
        attach = nodes[rng.randint(0, i - 1)]
        a, b = min(nodes[i], attach), max(nodes[i], attach)
        edges.add((a, b))
    target_links = int(round(mean_degree * num_nodes / 2))
    tries = 0
    while len(edges) < target_links and tries < max_tries * target_links:
        tries += 1
        a = rng.randint(0, num_nodes - 1)
        b = rng.randint(0, num_nodes - 1)
        if a == b:
            continue
        edges.add((min(a, b), max(a, b)))
    if len(edges) < target_links:
        raise TopologyError(
            f"irregular({num_nodes}, mean_degree={mean_degree}) exhausted "
            f"{tries} tries at {len(edges)} links; {target_links} requested"
        )
    return Topology(
        num_nodes, sorted(edges), num_ports, name=f"irregular{num_nodes}"
    )
