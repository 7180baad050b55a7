"""Tests for the network-wide columnar arena and dimension-order routing.

The arena (DESIGN.md §7f) pools the routers' columnar state; the
identity contract is that delivered flit streams and run summaries are
bit-identical to the unpooled object graph, including through mid-run
flag flips.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import columnar
from repro.core.columnar import (
    ColumnarPool,
    ColumnarState,
    ColumnarUnavailableError,
)
from repro.harness.network_experiment import (
    NetworkExperiment,
    NetworkExperimentSpec,
    attach_delivery_log,
    parse_topology,
)
from repro.network.topology import Topology, TopologyError, mesh, torus
from repro.routing.deadlock import verify_deadlock_free
from repro.routing.dimension_order import (
    DimensionOrderRouter,
    dimension_order_relation,
    dimension_order_search,
    next_hop,
    require_grid,
)
from repro.traffic.vbr import MpegProfile

np = columnar.load_numpy()
needs_numpy = pytest.mark.skipif(
    np is None, reason="NumPy (the repro[fast] extra) not installed"
)


def _summary(result):
    return (
        result.streams,
        result.attempts,
        result.mean_hops,
        result.delay_cycles.mean,
        result.delay_cycles.count,
        result.jitter_cycles.mean,
        result.by_hops,
        result.best_effort_delivered,
    )


def _run_point(arena: bool, topo: str, seed: int, columnar: bool = False):
    """One small mixed-traffic run: admitted CBR load, a deterministic
    set of VBR cross-streams, and best-effort chatter."""
    kind, _ = parse_topology(topo)
    spec = NetworkExperimentSpec(
        target_link_load=0.25,
        topology=topo,
        routing="adaptive" if kind == "irregular" else "dimension_order",
        best_effort_rate=0.4,
        warmup_cycles=300,
        measure_cycles=1200,
        seed=seed,
        network_arena=arena,
        columnar_state=columnar,
    )
    experiment = NetworkExperiment(spec)
    num_nodes = experiment.topology.num_nodes
    for src in range(0, num_nodes, 3):
        dst = (src + num_nodes // 2) % num_nodes
        if dst != src:
            experiment.interfaces[src].open_vbr(
                dst, MpegProfile(mean_rate_bps=8e6, frame_rate_hz=3000.0)
            )
    log = attach_delivery_log(experiment)
    result = experiment.result()
    return log, _summary(result)


@needs_numpy
class TestArenaIdentity:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        topo=st.sampled_from(("mesh3x3", "torus3x3", "torus4x2", "irregular")),
    )
    def test_arena_matches_object_graph(self, seed, topo):
        base_log, base = _run_point(False, topo, seed)
        arena_log, arena = _run_point(True, topo, seed)
        assert base == arena
        assert base_log == arena_log
        assert base_log, "scenario delivered no flits — vacuous identity"

    def test_mid_run_flips_are_bit_identical(self):
        spec = NetworkExperimentSpec(
            target_link_load=0.3,
            topology="mesh3x3",
            routing="dimension_order",
            best_effort_rate=0.5,
            warmup_cycles=300,
            measure_cycles=1500,
            seed=5,
        )
        reference = NetworkExperiment(spec)
        ref_log = attach_delivery_log(reference)
        ref = _summary(reference.result())

        flipped = NetworkExperiment(spec)
        flip_log = attach_delivery_log(flipped)
        flipped.run_to(600)
        flipped.network.set_network_arena(True)  # banks re-homed mid-run
        flipped.run_to(1200)
        flipped.network.set_network_arena(False)
        assert _summary(flipped.result()) == ref
        assert flip_log == ref_log

    def test_pooled_columnar_arena_matches_object_graph(self):
        # Regression: with columnar_state=True the banks are built
        # eagerly, so NetworkArena must reserve every bank's
        # pool rows before the first adoption rebuilds into the pool —
        # interleaving reserve/adopt froze the chunks at one bank's
        # capacity and the second bank's take() raised RuntimeError at
        # construction (the CLI's --columnar --arena combination).
        base_log, base = _run_point(False, "mesh3x3", 7)
        pooled_log, pooled = _run_point(True, "mesh3x3", 7, columnar=True)
        assert base == pooled
        assert base_log == pooled_log
        assert base_log, "scenario delivered no flits — vacuous identity"

    def test_legacy_kernel_does_not_accumulate_wake_records(self):
        # Regression: under allow_fast_forward=False nothing ever sleeps,
        # so nothing may queue wake-ups either — a queue nobody drains
        # would grow (and get pickled) for the whole run.  The legacy
        # kernel therefore installs no wake hooks at all.
        spec = NetworkExperimentSpec(
            target_link_load=0.25,
            topology="mesh3x3",
            routing="dimension_order",
            best_effort_rate=0.4,
            warmup_cycles=100,
            measure_cycles=400,
            seed=2,
            network_arena=True,
            allow_fast_forward=False,
        )
        experiment = NetworkExperiment(spec)
        experiment.run_to(experiment.total_cycles)
        assert experiment.sim._woken == []
        assert all(
            router.activity.on_wake is None
            for router in experiment.network.routers
        )

    def test_arena_flag_is_idempotent(self):
        spec = NetworkExperimentSpec(
            target_link_load=0.2,
            topology="mesh3x3",
            warmup_cycles=100,
            measure_cycles=200,
            seed=1,
            network_arena=True,
        )
        experiment = NetworkExperiment(spec)
        assert experiment.network.network_arena
        experiment.network.set_network_arena(True)  # no-op, must not stack
        experiment.network.set_network_arena(False)
        assert not experiment.network.network_arena
        experiment.network.set_network_arena(False)
        experiment.result()


@pytest.mark.skipif(np is not None, reason="exercises the no-NumPy path")
def test_arena_requires_numpy():
    spec = NetworkExperimentSpec(
        target_link_load=0.2,
        topology="mesh3x3",
        warmup_cycles=100,
        measure_cycles=100,
        network_arena=True,
    )
    with pytest.raises(ColumnarUnavailableError):
        NetworkExperiment(spec)


@needs_numpy
class TestColumnarPool:
    def test_take_is_stable_and_typed(self):
        pool = ColumnarPool()
        req = ColumnarState.pool_requirements(8, 4)
        pool.reserve(req)
        a = pool.take(("x", "prio_base"), 8, np.float64)
        b = pool.take(("x", "prio_base"), 8, np.float64)
        assert a.base is b.base or np.shares_memory(a, b)
        with pytest.raises(ValueError):
            pool.take(("x", "prio_base"), 9, np.float64)

    def test_growth_after_allocation_is_refused(self):
        pool = ColumnarPool()
        pool.reserve({"float64": 4})
        pool.take(("a", "v"), 4, np.float64)
        with pytest.raises(RuntimeError):
            pool.reserve({"float64": 4})
            pool.take(("b", "v"), 4, np.float64)

    def test_pickle_drops_chunks_and_keeps_layout(self):
        import pickle

        pool = ColumnarPool()
        pool.reserve({"float64": 8})
        view = pool.take(("a", "v"), 8, np.float64)
        view[:] = 7.0
        clone = pickle.loads(pickle.dumps(pool))
        # Arrays are never pickled; the layout is, so the same key
        # resolves to the same rows in a fresh chunk.
        fresh = clone.take(("a", "v"), 8, np.float64)
        assert fresh.shape == view.shape
        assert clone.rows_allocated("float64") == pool.rows_allocated("float64")


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
