"""Tests for EPB, up*/down*, the adaptive routing relation and
dimension-order routing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.network_experiment import (
    NetworkExperiment,
    NetworkExperimentSpec,
)
from repro.network.topology import (
    Topology,
    TopologyError,
    hypercube,
    irregular,
    mesh,
    ring,
    torus,
)
from repro.routing.adaptive import AdaptiveRouter
from repro.routing.deadlock import verify_deadlock_free
from repro.routing.dimension_order import (
    DimensionOrderRouter,
    dimension_order_relation,
    dimension_order_search,
    next_hop,
    require_grid,
)
from repro.routing.epb import count_minimal_paths, epb_search, profitable_ports
from repro.routing.history import HistoryStore
from repro.routing.updown import UpDownRouting
from repro.sim.rng import SeededRng


def always(node, port, neighbor):
    return True


def never(node, port, neighbor):
    return False


class TestHistoryStore:
    def test_mark_and_query(self):
        h = HistoryStore()
        assert not h.was_searched((0, -1), 2)
        h.mark_searched((0, -1), 2)
        assert h.was_searched((0, -1), 2)
        assert h.searched_at((0, -1)) == {2}

    def test_points_independent(self):
        h = HistoryStore()
        h.mark_searched((0, -1), 2)
        assert not h.was_searched((1, 0), 2)

    def test_clear_point(self):
        h = HistoryStore()
        h.mark_searched((0, -1), 2)
        h.clear_point((0, -1))
        assert not h.was_searched((0, -1), 2)
        h.clear_point((9, 9))  # no-op

    def test_total_marks(self):
        h = HistoryStore()
        h.mark_searched((0, -1), 1)
        h.mark_searched((0, -1), 2)
        h.mark_searched((1, 0), 1)
        assert h.total_marks() == 3
        h.clear()
        assert h.total_marks() == 0


class TestProfitablePorts:
    def test_only_closer_neighbors(self):
        topo = mesh(3, 1)  # 0 - 1 - 2
        ports = profitable_ports(topo, 0, 2)
        assert [n for _, n in ports] == [1]
        assert profitable_ports(topo, 2, 2) == []

    def test_multiple_minimal_directions(self):
        topo = mesh(2, 2)
        ports = profitable_ports(topo, 0, 3)
        assert {n for _, n in ports} == {1, 2}

    def test_unreachable_destination_has_no_profitable_port(self):
        topo = Topology(4, [(0, 1), (2, 3)])  # two islands
        assert profitable_ports(topo, 0, 3) == []

    def test_out_of_range_destination_raises(self):
        """A mistyped destination is an error, not a refused connection."""
        with pytest.raises(TopologyError, match="node 99 out of range"):
            profitable_ports(mesh(4, 4), 0, 99)


class TestEpbSearch:
    def test_trivial_same_node(self):
        topo = ring(4)
        result = epb_search(topo, 1, 1, always)
        assert result.success
        assert result.path == [1]
        assert result.hops == 0

    def test_finds_minimal_path(self):
        topo = mesh(3, 3)
        result = epb_search(topo, 0, 8, always)
        assert result.success
        assert result.hops == topo.distance(0, 8) == 4
        assert result.path[0] == 0
        assert result.path[-1] == 8
        # Every step is a real link and strictly profitable.
        for a, b in zip(result.path, result.path[1:]):
            assert b in topo.neighbors(a)
            assert topo.distance(b, 8) < topo.distance(a, 8)

    def test_ports_match_path(self):
        topo = mesh(3, 3)
        result = epb_search(topo, 0, 8, always)
        for node, port, nxt in zip(result.path, result.ports, result.path[1:]):
            assert topo.neighbor_on_port(node, port) == nxt

    def test_fails_when_nothing_admissible(self):
        topo = ring(4)
        result = epb_search(topo, 0, 2, never)
        assert not result.success
        assert result.links_searched > 0

    def test_backtracks_around_blocked_branch(self):
        # 0-1-3 and 0-2-3: block the 1->3 link; EPB must back out of 1.
        topo = Topology(4, [(0, 1), (0, 2), (1, 3), (2, 3)])

        def admissible(node, port, neighbor):
            return not (node == 1 and neighbor == 3)

        result = epb_search(topo, 0, 3, admissible)
        assert result.success
        assert result.path == [0, 2, 3]
        assert result.backtracks >= 1

    def test_exhaustive_search_visits_all_minimal_paths(self):
        topo = mesh(2, 2)
        result = epb_search(topo, 0, 3, never)
        # Both minimal branches out of node 0 must have been tried.
        assert result.links_searched >= 2

    def test_minimal_only_no_detours(self):
        # Minimal path blocked entirely -> failure even though a longer
        # path exists (EPB searches minimal paths only).
        topo = Topology(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
        # Both 0-1-2 and 0-3-2 are minimal here; block both middle hops.
        def admissible(node, port, neighbor):
            return node == 0

        result = epb_search(topo, 0, 2, admissible)
        assert not result.success

    @settings(max_examples=25)
    @given(st.integers(0, 500), st.integers(5, 14))
    def test_always_succeeds_on_open_network(self, seed, nodes):
        rng = SeededRng(seed, "epb")
        topo = irregular(nodes, rng, mean_degree=3.0)
        src = seed % nodes
        dst = (seed * 7 + 1) % nodes
        if src == dst:
            dst = (dst + 1) % nodes
        result = epb_search(topo, src, dst, always)
        assert result.success
        assert result.hops == topo.distance(src, dst)

    def test_count_minimal_paths(self):
        topo = mesh(2, 2)
        assert count_minimal_paths(topo, 0, 3) == 2
        assert count_minimal_paths(topo, 0, 0) == 1
        assert count_minimal_paths(mesh(3, 3), 0, 8) == 6


class TestUpDown:
    def test_requires_connected(self):
        topo = Topology(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            UpDownRouting(topo)

    def test_levels_from_root(self):
        topo = mesh(3, 1)
        ud = UpDownRouting(topo, root=0)
        assert ud.level == [0, 1, 2]

    def test_is_up_toward_root(self):
        topo = mesh(3, 1)
        ud = UpDownRouting(topo, root=0)
        assert ud.is_up(1, 0)
        assert not ud.is_up(0, 1)

    def test_tie_broken_by_id(self):
        topo = ring(4)
        ud = UpDownRouting(topo, root=0)
        # Nodes 1 and 3 share level 1.
        assert ud.is_up(3, 1)
        assert not ud.is_up(1, 3)

    def test_route_is_legal(self):
        topo = irregular(12, SeededRng(3, "ud"), mean_degree=3.0)
        ud = UpDownRouting(topo)
        for src in range(12):
            for dst in range(12):
                if src == dst:
                    continue
                path = ud.route(src, dst)
                assert path[0] == src and path[-1] == dst
                # Once the path goes down it never goes up again.
                gone_down = False
                for a, b in zip(path, path[1:]):
                    up = ud.is_up(a, b)
                    if gone_down:
                        assert not up, f"down->up violation in {path}"
                    if not up:
                        gone_down = True

    def test_route_trivial(self):
        topo = ring(4)
        assert UpDownRouting(topo).route(2, 2) == [2]

    def test_legal_next_hops_never_dead_end(self):
        topo = irregular(10, SeededRng(8, "dead"), mean_degree=3.0)
        ud = UpDownRouting(topo)
        for src in range(10):
            for dst in range(10):
                if src == dst:
                    continue
                # Greedily follow any legal hop; must terminate.
                node, arrived_up, hops = src, None, 0
                while node != dst:
                    choices = ud.legal_next_hops(node, dst, arrived_up)
                    assert choices, f"dead end at {node} toward {dst}"
                    port, nxt, up = min(
                        choices, key=lambda c: (topo.distance(c[1], dst), c[0])
                    )
                    arrived_up = up
                    node = nxt
                    hops += 1
                    assert hops <= 4 * topo.num_nodes


class TestAdaptiveRouter:
    def test_choices_empty_at_destination(self):
        router = AdaptiveRouter(mesh(2, 2))
        assert router.choices(3, 3) == []

    def test_adaptive_choices_are_minimal(self):
        topo = mesh(3, 3)
        router = AdaptiveRouter(topo)
        for choice in router.choices(0, 8):
            if not choice.escape:
                assert topo.distance(choice.next_node, 8) < topo.distance(0, 8)

    def test_escape_choices_respect_legality(self):
        topo = irregular(10, SeededRng(4, "ad"), mean_degree=3.0)
        router = AdaptiveRouter(topo)
        for node in range(10):
            for dst in range(10):
                if node == dst:
                    continue
                for choice in router.choices(node, dst, arrived_up=False):
                    if choice.escape:
                        assert not router.updown.is_up(node, choice.next_node)

    def test_route_reaches_destination(self):
        topo = hypercube(3)
        router = AdaptiveRouter(topo)
        for src in range(8):
            for dst in range(8):
                if src != dst:
                    path = router.route(src, dst)
                    assert path[0] == src and path[-1] == dst

    @settings(max_examples=20)
    @given(st.integers(0, 300), st.integers(5, 12))
    def test_escape_only_route_terminates(self, seed, nodes):
        topo = irregular(nodes, SeededRng(seed, "esc"), mean_degree=3.0)
        router = AdaptiveRouter(topo)
        src, dst = 0, nodes - 1
        path = router.route(src, dst, prefer_adaptive=False)
        assert path[-1] == dst


class TestDimensionOrderRouting:
    def test_next_hop_goes_x_then_y(self):
        topo = mesh(4, 4)
        # node 0 -> node 15: cross X first (0->1->2->3), then Y.
        assert next_hop(topo, 0, 15) == 1
        assert next_hop(topo, 3, 15) == 7
        assert next_hop(topo, 15, 15) is None

    def test_torus_wrap_takes_shorter_way(self):
        topo = torus(5, 5)
        # 0 -> 4 along X: wrapping backward (0 -> 4) is 1 hop.
        assert next_hop(topo, 0, 4) == 4

    def test_search_walks_single_minimal_path(self):
        topo = mesh(4, 4)
        probe = dimension_order_search(topo, 0, 15, lambda n, p, x: True)
        assert probe.success
        assert probe.path[0] == 0 and probe.path[-1] == 15
        assert len(probe.path) == topo.distance(0, 15) + 1
        assert probe.backtracks == 0

    def test_search_fails_without_backtracking(self):
        topo = mesh(4, 4)
        # Refuse every link out of node 1 (the only DOR first hop 0->15).
        probe = dimension_order_search(
            topo, 0, 15, lambda n, p, x: n != 1
        )
        assert not probe.success
        assert probe.backtracks == 0

    def test_requires_grid_metadata(self):
        bare = Topology(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(TopologyError):
            require_grid(bare)
        with pytest.raises(TopologyError):
            DimensionOrderRouter(bare)

    def test_mesh_relation_is_deadlock_free(self):
        # Satellite guarantee: XY order on a mesh yields an acyclic
        # channel-dependency graph (Dally-Seitz), so saturated runs
        # cannot wedge.
        for dims in ((4, 4), (3, 5), (8, 2)):
            topo = mesh(*dims)
            assert verify_deadlock_free(topo, dimension_order_relation(topo)) is None

    def test_torus_wrap_closes_dependency_cycles(self):
        # Documented limitation: without datelines the torus wrap links
        # close rings in the dependency graph.
        topo = torus(4, 4)
        assert verify_deadlock_free(topo, dimension_order_relation(topo)) is not None

    def test_saturated_mesh_drains(self):
        spec = NetworkExperimentSpec(
            target_link_load=0.9,
            topology="mesh4x4",
            routing="dimension_order",
            best_effort_rate=2.0,
            warmup_cycles=500,
            measure_cycles=2000,
            seed=3,
        )
        experiment = NetworkExperiment(spec)
        experiment.run_to(experiment.total_cycles)
        network = experiment.network
        # Stop all injection, run the drain horizon: a deadlock-free
        # network must empty its buffers.
        for dst, stream in experiment.streams:
            stream.source.stop_time = experiment.sim.now
        experiment.sim.run(5000)
        assert network.total_buffered() == 0
