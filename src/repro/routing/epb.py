"""Exhaustive profitable backtracking — EPB (paper §3.5, [17]).

EPB establishes connections: a routing probe "performs an exhaustive
search of the minimal paths in the network until a valid path is found or
the probe backtracks to the source node".  Profitable links are those on a
minimal path (they reduce the distance to the destination); the per-VC
history store prevents searching the same link twice.

The search itself is a control-plane walk over network state: each step
asks an admissibility predicate whether the candidate output link can
accept the connection (free VC downstream and bandwidth available — the
caller binds this to real router state).  The walk's cost statistics
(links searched, backtracks) feed the establishment-latency model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..network.topology import DisconnectedError, Topology
from .history import HistoryStore

# admissible(node, output_port, next_node) -> bool: can the probe reserve
# the link leaving ``node`` through ``output_port`` toward ``next_node``?
Admissible = Callable[[int, int, int], bool]


@dataclass
class ProbeResult:
    """Outcome of one EPB probe."""

    success: bool
    #: Router path source..destination (inclusive) on success, else the
    #: partial path at abandonment.
    path: List[int] = field(default_factory=list)
    #: Output port taken at each router of ``path`` except the last.
    ports: List[int] = field(default_factory=list)
    links_searched: int = 0
    backtracks: int = 0

    @property
    def hops(self) -> int:
        """Number of links in the found path."""
        return max(0, len(self.path) - 1)


def profitable_ports(
    topology: Topology, node: int, destination: int
) -> List[Tuple[int, int]]:
    """(output port, next node) pairs lying on a minimal path.

    A link is profitable when the neighbor is strictly closer to the
    destination.  Sorted by port for determinism.  A node outside the
    topology raises :class:`TopologyError` naming it.
    """
    if node == destination:
        return []
    try:
        here = topology.distance(node, destination)
    except DisconnectedError:
        # Destination unreachable (partitioned network): nothing is
        # profitable, the probe backs out and the request fails cleanly.
        return []
    out = []
    for neighbor in topology.neighbors(node):
        if topology.distance(neighbor, destination) < here:
            out.append((topology.port_of(node, neighbor), neighbor))
    out.sort()
    return out


def epb_search(
    topology: Topology,
    source: int,
    destination: int,
    admissible: Admissible,
    max_steps: int = 100000,
) -> ProbeResult:
    """Run one EPB probe from ``source`` to ``destination``.

    Depth-first over minimal paths only: forward moves must be profitable
    and admissible; exhausted nodes are backtracked.  The history store
    guarantees termination — each (search point, output link) pair is
    tried at most once.
    """
    if source == destination:
        return ProbeResult(True, [source])
    history = HistoryStore()
    result = ProbeResult(False)
    # Stack entries: (node, port entered through at that node; -1 at source).
    stack: List[Tuple[int, int]] = [(source, -1)]
    path_ports: List[int] = []
    on_path = {source}
    steps = 0
    while stack:
        steps += 1
        if steps > max_steps:
            break
        node, in_port = stack[-1]
        point = (node, in_port)
        advanced = False
        for out_port, neighbor in profitable_ports(topology, node, destination):
            if history.was_searched(point, out_port):
                continue
            history.mark_searched(point, out_port)
            result.links_searched += 1
            if neighbor in on_path:
                # Minimal-path search cannot revisit; skip (counts as a
                # searched link, as the hardware history store would).
                continue
            if not admissible(node, out_port, neighbor):
                continue
            entered = topology.port_of(neighbor, node)
            stack.append((neighbor, entered))
            path_ports.append(out_port)
            on_path.add(neighbor)
            advanced = True
            if neighbor == destination:
                result.success = True
                result.path = [n for n, _ in stack]
                result.ports = list(path_ports)
                return result
            break
        if not advanced:
            # Dead end: release this node and back the probe up one hop.
            stack.pop()
            on_path.discard(node)
            history.clear_point(point)
            if path_ports:
                path_ports.pop()
            if stack:
                result.backtracks += 1
    result.path = [source]
    return result


def count_minimal_paths(
    topology: Topology, source: int, destination: int, limit: int = 10000
) -> int:
    """Number of distinct minimal paths (search-space size; for analysis).

    Capped at ``limit`` to bound the recursion on dense graphs.
    """
    if source == destination:
        return 1
    total = 0
    stack = [(source, frozenset({source}))]
    while stack and total < limit:
        node, visited = stack.pop()
        for _, neighbor in profitable_ports(topology, node, destination):
            if neighbor in visited:
                continue
            if neighbor == destination:
                total += 1
                if total >= limit:
                    break
            else:
                stack.append((neighbor, visited | {neighbor}))
    return total
