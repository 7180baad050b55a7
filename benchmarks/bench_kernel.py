"""Micro-benchmarks of the simulator's hot paths.

Unlike the figure benchmarks (one deterministic run each), these measure
steady-state throughput of the kernel primitives the cycle loop leans on:
bit-vector candidate math, the event queue, the VCM data path, and a full
router cycle.  Useful for catching performance regressions in the
simulation engine itself.
"""

from repro.core.bandwidth import BandwidthRequest
from repro.core.config import RouterConfig
from repro.core.priority import BiasedPriority
from repro.core.router import Router
from repro.core.status_vectors import BitVector, StatusBank
from repro.core.switch_scheduler import GreedyPriorityScheduler
from repro.core.vcm import VcmGeometry, VirtualChannelMemory
from repro.harness.kernel_bench import build_cbr_scenario
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.sim.rng import SeededRng
from repro.traffic.cbr import CbrSource


def test_bitvector_candidate_math(benchmark):
    """The §4.1 bit-parallel AND across four 256-wide status vectors."""
    bank = StatusBank(256)
    rng = SeededRng(1, "bits")
    for name in ("flits_available", "cbr_service_requested"):
        vector = bank.vector(name)
        for _ in range(64):
            vector.set(rng.randint(0, 255))

    def combine():
        return bank.cbr_candidates().count()

    result = benchmark(combine)
    assert result > 0


def test_bitvector_index_walk(benchmark):
    """Walking the set bits of a sparse 256-wide vector."""
    vector = BitVector(256)
    rng = SeededRng(2, "walk")
    for _ in range(16):
        vector.set(rng.randint(0, 255))

    result = benchmark(lambda: sum(1 for _ in vector.indices()))
    assert result == vector.count()


def test_event_queue_churn(benchmark):
    """Push/pop churn at simulation scale."""

    def churn():
        queue = EventQueue()
        for i in range(512):
            queue.push(i % 37, lambda: None)
        drained = 0
        while queue:
            queue.pop()
            drained += 1
        return drained

    assert benchmark(churn) == 512


def test_vcm_write_read(benchmark):
    """Whole-flit VCM transfers through the interleaved modules."""
    vcm = VirtualChannelMemory(VcmGeometry(64, 4, 8, 8))

    def transfer():
        for vc in range(64):
            vcm.write_flit(vc, vc)
        for vc in range(64):
            vcm.read_flit(vc)
        return 64

    assert benchmark(transfer) == 64


def test_router_cycles_per_second(benchmark):
    """Full router flit cycles under a moderate CBR load.

    This is the simulator's headline cost: paper-scale experiments run
    ~120k of these per point.
    """
    config = RouterConfig(enforce_round_budgets=False)
    sim = Simulator()
    router = Router(config, BiasedPriority(), GreedyPriorityScheduler(), sim)
    rng = SeededRng(3, "cycles")
    for i in range(32):
        rate = 55e6
        vc_index = router.open_connection(
            i + 1,
            i % 8,
            (i * 3 + 1) % 8,
            BandwidthRequest(config.rate_to_cycles_per_round(rate)),
            interarrival_cycles=config.rate_to_interarrival_cycles(rate),
        )
        source = CbrSource(
            sim, router, i + 1, i % 8, vc_index, rate, config,
            phase=rng.uniform(0, 20),
        )
        source.start()

    def run_chunk():
        sim.run(1000)
        return router.stats.get_counter("flits_switched")

    assert benchmark(run_chunk) > 0


def test_kernel_light_load(benchmark):
    """One 124 Mbps CBR stream through the 8x8 router — the 10%-link-load
    point where the kernel fast-forwards 80% of cycles."""
    sim, router = build_cbr_scenario(connections=1)

    def run_chunk():
        sim.run(1000)
        return router.stats.get_counter("flits_switched")

    assert benchmark(run_chunk) > 0
