"""Seeded single-router scenarios whose delivered flits tests compare.

Every CBR source starts at phase 0, so a run is a fixed function of its
arguments.  A ``delivered`` list receives one ``(connection, sequence,
created, depart)`` record per flit that leaves the router.
"""

from repro.core.bandwidth import BandwidthRequest
from repro.core.config import RouterConfig
from repro.core.priority import BiasedPriority
from repro.core.router import Router
from repro.core.switch_scheduler import GreedyPriorityScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng
from repro.traffic.cbr import CbrSource
from repro.traffic.load import LoadPlanner
from repro.traffic.rates import MBPS


class DeliveryLog:
    """Output handler appending one record per flit; a class, not a
    closure, so a scenario carrying one stays picklable."""

    __slots__ = ("records",)

    def __init__(self, records) -> None:
        self.records = records

    def __call__(self, flit, output_vc) -> None:
        self.records.append(
            (flit.connection_id, flit.sequence, flit.created, flit.depart_time)
        )


def _router(sim, delivered, **options):
    config = RouterConfig(enforce_round_budgets=False)
    router = Router(config, BiasedPriority(), GreedyPriorityScheduler(), sim, **options)
    if delivered is not None:
        handler = DeliveryLog(delivered)
        for port in range(config.num_ports):
            router.set_output_handler(port, handler)
    return router


def _open_cbr(
    sim, router, connection_id, input_port, output_port, rate_bps, priority=0.0
):
    config = router.config
    vc_index = router.open_connection(
        connection_id,
        input_port,
        output_port,
        BandwidthRequest(config.rate_to_cycles_per_round(rate_bps)),
        interarrival_cycles=config.rate_to_interarrival_cycles(rate_bps),
        static_priority=priority,
    )
    if vc_index is not None:  # None is a flit-cycle rounding refusal
        CbrSource(
            sim, router, connection_id, input_port, vc_index, rate_bps, config, phase=0
        ).start()


def build_cbr_scenario(connections, rate_bps=124e6, delivered=None, recorder=None):
    """An 8x8 router with ``connections`` (1-8) CBR streams, 10 % of the
    link each by default.  Connection ``i`` enters input ``i`` and leaves
    output ``(3 i + 1) mod 8``, a permutation, so no two streams contend."""
    if not 1 <= connections <= 8:
        raise ValueError(f"connections must be in [1, 8], got {connections}")
    sim = Simulator()
    router = _router(sim, delivered, recorder=recorder)
    if recorder is not None:
        recorder.attach(sim)
    for i in range(connections):
        _open_cbr(sim, router, i + 1, i, (i * 3 + 1) % 8, rate_bps)
    return sim, router


def build_saturated_scenario(target_load=0.9, seed=7, delivered=None):
    """An 8x8 router loaded to ``target_load`` with 5, 10 and 20 Mbps CBR
    streams (729 of them at 0.9, seed 7) placed and prioritised from
    ``seed``: bursts keep hundreds of VCs eligible at once."""
    rng = SeededRng(seed, "sched-bench")
    sim = Simulator()
    router = _router(sim, delivered, selection="per_output", rng=rng.spawn("router"))
    rate_set = (5 * MBPS, 10 * MBPS, 20 * MBPS)
    plan = LoadPlanner(router.config, rng.spawn("plan"), rate_set=rate_set)
    priority_rng = rng.spawn("static-priority")
    for item in plan.plan(target_load).specs:
        _open_cbr(
            sim,
            router,
            item.connection_id,
            item.input_port,
            item.output_port,
            item.rate_bps,
            priority_rng.random(),
        )
    return sim, router
