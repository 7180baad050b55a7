"""Property tests for the fused bit-parallel candidate scan.

Drives a small mesh network through seeded-random workloads — CBR and
VBR streams, best-effort packets (which route lazily), finite link
credits from small downstream buffers, and round boundaries with budget
enforcement — then pauses at arbitrary points and checks that:

* the fused eligibility mask ``flits & credits & routed & ~exhausted``
  equals the brute-force per-VC predicate the reference walk evaluates;
* the scan's candidate set is identical to the reference walk's
  (``tests/reference_scheduler.py``) under all four selection modes;
* the routers' cross-structure invariants hold (vector/state sync).
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import RouterConfig
from repro.core.priority import BiasedPriority
from repro.network.connection import ConnectionManager
from repro.network.interface import NetworkInterface
from repro.network.network import Network
from repro.network.topology import mesh
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng
from repro.traffic.vbr import MpegProfile

from tests.reference_scheduler import reference_candidates

NODES = 4
CBR_RATES = (10e6, 20e6, 40e6)
SELECTION_MODES = ("per_output", "priority", "rotating", "random")

# One op per tuple: (kind, src, dst-ish, magnitude).  dst collapses onto
# a different node than src; magnitude picks a rate or a cycle count.
operations = st.lists(
    st.tuples(
        st.sampled_from(["cbr", "vbr", "be", "run"]),
        st.integers(0, NODES - 1),
        st.integers(0, NODES - 1),
        st.integers(1, 300),
    ),
    min_size=4,
    max_size=24,
)


def build_network():
    topo = mesh(2, 2)
    config = RouterConfig(
        num_ports=topo.num_ports,
        vcs_per_port=8,
        vc_buffer_flits=2,  # small buffers: credit bits actually toggle
        enforce_round_budgets=True,  # exhausted bits actually toggle
        round_factor=4,
    )
    sim = Simulator()
    rng = SeededRng(17, "fastpath")
    network = Network(
        topo, config, BiasedPriority(), sim, rng, link_latency=2
    )
    manager = ConnectionManager(network)
    interfaces = [
        NetworkInterface(network, manager, n, rng=rng.spawn(f"ni{n}"))
        for n in range(NODES)
    ]
    return network, interfaces, sim


def brute_force_mask(router, port):
    """The reference walk's eligibility predicate, one bit per VC."""
    scheduler = router.link_schedulers[port.port]
    mask = 0
    for vc in port.vcs:
        if vc.occupancy == 0 or vc.output_port < 0:
            continue
        if not router._credit_check(vc.output_port, vc.output_vc):
            continue
        if scheduler._round_gate(vc) is None:
            continue
        mask |= 1 << vc.index
    return mask


def assert_modes_identical(scheduler, now):
    """Scan candidates == reference candidates, all four modes.

    Rotating mode mutates the scan pointer and random mode draws from
    the rng, so both are saved/replayed so the two walks see identical
    state; counters are restored afterwards (this probe must not skew
    the telemetry the run accumulates).
    """
    saved = (
        scheduler.selection,
        scheduler._scan_pointer,
        scheduler.rng,
        scheduler.candidates_offered,
        scheduler.cycles_with_candidates,
        scheduler.eligible_vcs_total,
    )
    try:
        for mode in SELECTION_MODES:
            scheduler.selection = mode
            scheduler._scan_pointer = saved[1]
            scheduler.rng = SeededRng(2024, f"probe-{mode}")
            fast = scheduler.candidates(now)
            scheduler._scan_pointer = saved[1]
            scheduler.rng = SeededRng(2024, f"probe-{mode}")
            reference = reference_candidates(scheduler, now)
            assert fast == reference, (
                f"selection={mode} port={scheduler.port}: "
                f"fast={fast} reference={reference}"
            )
    finally:
        (
            scheduler.selection,
            scheduler._scan_pointer,
            scheduler.rng,
            scheduler.candidates_offered,
            scheduler.cycles_with_candidates,
            scheduler.eligible_vcs_total,
        ) = saved


def check_network(network, now):
    for router in network.routers:
        router.check_invariants()
        for port in router.input_ports:
            scheduler = router.link_schedulers[port.port]
            assert scheduler.fused_mask() == brute_force_mask(router, port), (
                f"{router.name} port {port.port}: fused mask diverged "
                "from the brute-force predicate"
            )
            assert_modes_identical(scheduler, now)


class TestFusedMaskProperty:
    @settings(max_examples=15, deadline=None)
    @given(operations)
    def test_fused_mask_and_candidates_match_reference(self, ops):
        network, interfaces, sim = build_network()
        for kind, src, dst, magnitude in ops:
            destination = dst if dst != src else (src + 1) % NODES
            if kind == "cbr":
                interfaces[src].open_cbr(
                    destination, CBR_RATES[magnitude % len(CBR_RATES)]
                )
            elif kind == "vbr":
                interfaces[src].open_vbr(
                    destination, MpegProfile(mean_rate_bps=15e6)
                )
            elif kind == "be":
                interfaces[src].send_best_effort(destination)
            else:
                sim.run(magnitude)
                check_network(network, sim.now)
        sim.run(300)
        check_network(network, sim.now)

    def test_close_clears_fast_path_bits(self):
        """Teardown scrubs the routed/credit/exhausted bits on every hop."""
        network, interfaces, sim = build_network()
        stream = interfaces[0].open_cbr(3, 20e6)
        assert stream is not None
        sim.run(2000)
        check_network(network, sim.now)
        # Stop the source, drain in-flight flits, then tear down.
        stream.source.stop_time = sim.now
        sim.run(3000)
        assert network.total_buffered() == 0
        interfaces[0].close(stream)
        check_network(network, sim.now)
        for router in network.routers:
            for scheduler in router.link_schedulers:
                assert scheduler.fused_mask() == 0
