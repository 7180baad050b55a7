"""Tests for the activity-driven simulation kernel.

Covers the kernel mechanics (activity gating, idle fast-forward, the
delay=0 ticker-context rule; dispatch order and idle accounting are in
test_kernel_contract.py, against a polling oracle) and the determinism
guarantee: the wake-driven kernel must be cycle-for-cycle identical to
the poll-every-ticker-every-cycle oracle (``tests/polling_kernel.py``) on
seeded runs — same delivered-flit timestamps, same counters.
"""

import pytest

from repro.core.bandwidth import BandwidthRequest
from repro.core.config import RouterConfig
from repro.core.priority import BiasedPriority
from repro.core.router import Router
from repro.core.status_vectors import ActivitySet
from repro.core.switch_scheduler import GreedyPriorityScheduler
from repro.harness import network_experiment
from repro.harness.network_experiment import (
    NetworkExperiment,
    NetworkExperimentSpec,
    attach_delivery_log,
)
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng
from repro.sim.trace import Tracer
from repro.traffic.cbr import CbrSource

from tests.polling_kernel import PollingKernel


class TestActivitySet:
    def test_starts_idle(self):
        acts = ActivitySet(4)
        assert not acts.active()
        assert not acts

    def test_set_clear(self):
        acts = ActivitySet(4)
        acts.set(2)
        assert acts.active()
        assert acts.test(2)
        acts.clear(2)
        assert not acts.active()

    def test_assign(self):
        acts = ActivitySet(4)
        acts.assign(1, True)
        assert acts.active()
        acts.assign(1, False)
        assert not acts.active()

    def test_independent_bits(self):
        acts = ActivitySet(4)
        acts.set(0)
        acts.set(3)
        acts.clear(0)
        assert acts.active()  # bit 3 still busy

    def test_repr(self):
        assert "width=4" in repr(ActivitySet(4))


class TestActivityGating:
    def test_inactive_ticker_skipped(self):
        sim = Simulator()
        acts = ActivitySet(1)
        ticked = []
        sim.add_ticker(ticked.append, activity=acts)
        sim.run(3)
        assert ticked == []
        assert sim.now == 3

    def test_active_ticker_runs(self):
        sim = Simulator()
        acts = ActivitySet(1)
        acts.set(0)
        ticked = []
        sim.add_ticker(ticked.append, activity=acts)
        sim.run(3)
        assert ticked == [0, 1, 2]

    def test_callable_predicate(self):
        sim = Simulator()
        busy = [True]
        ticked = []
        sim.add_ticker(ticked.append, activity=lambda: busy[0])
        sim.run(2)
        busy[0] = False
        sim.run(2)
        assert ticked == [0, 1]

    def test_bad_activity_rejected(self):
        with pytest.raises(TypeError):
            Simulator().add_ticker(lambda c: None, activity=42)

    def test_ticker_deactivating_itself_mid_run(self):
        # A ticker that clears its own activity stops being invoked.
        sim = Simulator()
        acts = ActivitySet(1)
        acts.set(0)
        ticked = []

        def tick(cycle):
            ticked.append(cycle)
            if cycle == 1:
                acts.clear(0)

        sim.add_ticker(tick, activity=acts)
        sim.run(10)
        assert ticked == [0, 1]
        assert sim.now == 10

    def test_event_reactivates_ticker(self):
        sim = Simulator()
        acts = ActivitySet(1)
        ticked = []
        sim.add_ticker(ticked.append, activity=acts)
        sim.schedule(5, lambda: acts.set(0))
        sim.run(8)
        # The activating event fires at cycle 5, before the tick phase.
        assert ticked == [5, 6, 7]


class TestFastForward:
    def test_idle_run_fast_forwards(self):
        sim = Simulator()
        acts = ActivitySet(1)
        sim.add_ticker(lambda c: None, activity=acts)
        executed = sim.run(1000)
        assert executed == 1000
        assert sim.now == 1000
        assert sim.fast_forwarded_cycles == 1000

    def test_fast_forward_stops_at_events(self):
        sim = Simulator()
        acts = ActivitySet(1)
        sim.add_ticker(lambda c: None, activity=acts)
        fired = []
        sim.schedule(400, lambda: fired.append(sim.now))
        sim.run(1000)
        assert fired == [400]
        # Everything but the one evented cycle was skipped.
        assert sim.fast_forwarded_cycles == 999

    def test_ungated_ticker_disables_fast_forward(self):
        sim = Simulator()
        ticked = []
        sim.add_ticker(ticked.append)  # no activity predicate
        sim.run(50)
        assert len(ticked) == 50
        assert sim.fast_forwarded_cycles == 0

    def test_stop_during_fast_forward_region(self):
        sim = Simulator()
        acts = ActivitySet(1)
        sim.add_ticker(lambda c: None, activity=acts)
        sim.schedule(7, sim.stop)
        executed = sim.run(100)
        assert executed == 8  # cycles 0..7 complete (7 skipped + 1 stepped)
        assert sim.now == 8


class TestTickerContextScheduling:
    def test_delay_zero_from_ticker_rejected(self):
        sim = Simulator()
        errors = []

        def tick(cycle):
            try:
                sim.schedule(0, lambda: None)
            except ValueError as exc:
                errors.append(str(exc))

        sim.add_ticker(tick)
        sim.run(1)
        assert len(errors) == 1
        assert "delay=1" in errors[0]

    def test_schedule_at_now_from_ticker_rejected(self):
        sim = Simulator()
        errors = []

        def tick(cycle):
            try:
                sim.schedule_at(sim.now, lambda: None)
            except ValueError as exc:
                errors.append(exc)

        sim.add_ticker(tick)
        sim.run(1)
        assert len(errors) == 1

    def test_delay_one_from_ticker_allowed(self):
        sim = Simulator()
        fired = []
        sim.add_ticker(lambda c: sim.schedule(1, lambda: fired.append(sim.now)) if c == 0 else None)
        sim.run(3)
        assert fired == [1]

    def test_delay_zero_from_event_still_fires_same_cycle(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0, lambda: order.append("inner"))

        sim.schedule(2, outer)
        sim.run(3)
        assert order == ["outer", "inner"]


def _run_single_router(sim, cycles=6000, connections=8, rate=20e6):
    """A seeded single-router CBR scenario on kernel ``sim``; returns
    delivery log and stats."""
    config = RouterConfig(enforce_round_budgets=False)
    router = Router(config, BiasedPriority(), GreedyPriorityScheduler(), sim)
    tracer = Tracer(capacity=100000, categories=("round",))
    router.tracer = tracer
    rng = SeededRng(7, "identity")
    delivered = []
    for port in range(config.num_ports):
        router.set_output_handler(
            port,
            lambda flit, ovc: delivered.append(
                (flit.connection_id, flit.sequence, flit.created, flit.depart_time)
            ),
        )
    for i in range(connections):
        vc_index = router.open_connection(
            i + 1,
            i % config.num_ports,
            (i * 3 + 1) % config.num_ports,
            BandwidthRequest(config.rate_to_cycles_per_round(rate)),
            interarrival_cycles=config.rate_to_interarrival_cycles(rate),
        )
        CbrSource(
            sim, router, i + 1, i % config.num_ports, vc_index, rate, config,
            phase=rng.uniform(0, 50),
        ).start()
    sim.run(cycles)
    router.check_invariants()
    rounds = [r.time for r in tracer.records()]
    return delivered, dict(router.stats.scalars), rounds, sim


def _run_multihop(monkeypatch, kernel):
    """A seeded 12-node network experiment built on ``kernel``."""
    monkeypatch.setattr(network_experiment, "Simulator", kernel)
    experiment = NetworkExperiment(
        NetworkExperimentSpec(
            target_link_load=0.1,
            num_nodes=12,
            vcs_per_port=16,
            warmup_cycles=500,
            measure_cycles=2000,
            seed=11,
        )
    )
    assert type(experiment.sim) is kernel
    log = attach_delivery_log(experiment)
    tracer = Tracer(capacity=100000, categories=("round",))
    for router in experiment.network.routers:
        router.tracer = tracer
    result = experiment.result()
    experiment.network.check_invariants()
    counters = [dict(router.stats.scalars) for router in experiment.network.routers]
    rounds = [r.time for r in tracer.records()]
    return log, counters, sorted(rounds), result


class TestKernelIdentity:
    def test_single_router_bit_identical(self):
        """Same seeded run on the polling oracle and on ``Simulator``:
        identical delivered-flit timestamps, counters and round-boundary
        trace."""
        polled = _run_single_router(PollingKernel())
        activity = _run_single_router(Simulator())
        assert activity[0] == polled[0]  # delivered flits, cycle for cycle
        assert activity[1] == polled[1]  # every stats counter, incl. cycles
        assert activity[2] == polled[2]  # round boundaries at the same cycles
        assert activity[3].fast_forwarded_cycles > 0  # the speedup is real

    def test_multihop_network_identical(self, monkeypatch):
        """Seeded 12-node network experiment: identical delivered log,
        per-router counters, round boundaries and end-to-end per-flit
        statistics on both kernels."""
        polled = _run_multihop(monkeypatch, PollingKernel)
        activity = _run_multihop(monkeypatch, Simulator)
        assert activity[0] and activity[0] == polled[0]
        assert activity[1] == polled[1]
        assert activity[2] == polled[2]
        for name in ("streams", "mean_hops", "by_hops"):
            assert getattr(activity[3], name) == getattr(polled[3], name)
        for stats in ("delay_cycles", "jitter_cycles"):
            ours, theirs = getattr(activity[3], stats), getattr(polled[3], stats)
            assert (ours.count, ours.mean, ours.variance) == (
                theirs.count, theirs.mean, theirs.variance
            )

    def test_idle_router_accounts_cycles_and_rounds(self):
        """A router with no traffic still reports every cycle and every
        round boundary after a fully fast-forwarded run."""
        config = RouterConfig(num_ports=4, vcs_per_port=8)  # round = 16
        sim = Simulator()
        router = Router(config, BiasedPriority(), GreedyPriorityScheduler(), sim)
        tracer = Tracer(categories=("round",))
        router.tracer = tracer
        sim.run(100)
        assert sim.fast_forwarded_cycles == 100
        assert router.stats.get_counter("cycles") == 100
        round_length = config.round_length
        expected = [c for c in range(100) if (c + 1) % round_length == 0]
        assert [r.time for r in tracer.records()] == expected

    def test_activity_published_through_lifecycle(self):
        from repro.core.flit import Flit, FlitType
        from repro.core.virtual_channel import ServiceClass

        config = RouterConfig(num_ports=4, vcs_per_port=8)
        sim = Simulator()
        router = Router(config, BiasedPriority(), GreedyPriorityScheduler(), sim)
        assert not router.activity.active()
        vc_index = router.open_connection(
            1, 0, 1, BandwidthRequest(2), service_class=ServiceClass.CBR
        )
        assert not router.activity.active()  # bound but no flits yet
        router.inject(0, vc_index, Flit(FlitType.DATA, connection_id=1, created=0))
        assert router.activity.active()
        sim.run(1)  # flit transmitted; crossbar still configured
        assert router.activity.active()
        sim.run(1)  # crossbar torn down
        assert not router.activity.active()
        router.check_invariants()
