"""Regression tests: the priority terms vs mid-flight control words.

The fused candidate scan reads each VC's priority terms without checking
them; their writers keep them current (the flit path where a flit
becomes head, ``refresh_terms`` after a control-plane write).  A
SET_PRIORITY / SET_BANDWIDTH control word (or a teardown-and-readmission
reusing the VC) changes the inputs of that computation *without* moving
the head flit, so every such site must refresh the terms — the
reference walk (``tests/reference_scheduler.py``) recomputes from scratch
each cycle and is the oracle, and ``Router.check_invariants`` audits the
terms of every VC holding a flit.
"""

import pytest

from repro.core.bandwidth import BandwidthRequest
from repro.core.config import RouterConfig
from repro.core.flit import Flit, FlitType
from repro.core.link_scheduler import LinkScheduler
from repro.core.priority import (
    BiasedPriority,
    FrozenFlitPriority,
    StaticConnectionPriority,
)
from repro.core.router import Router
from repro.core.status_vectors import StatusBank
from repro.core.switch_scheduler import GreedyPriorityScheduler
from repro.core.virtual_channel import ServiceClass, VirtualChannel
from repro.harness.churn import ChurnSpec, run_churn_experiment
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng

from tests.reference_scheduler import (
    every_output_has_credit,
    reference_candidates,
    use_reference_walk,
)


def reference_alone(scheduler, now):
    """The reference walk of a scheduler built without a router."""
    return reference_candidates(scheduler, now, credit=every_output_has_credit)


def build_scheduler(scheme):
    config = RouterConfig(
        num_ports=4, vcs_per_port=8, enforce_round_budgets=False
    )
    vcs = [VirtualChannel(0, i, config.vc_buffer_flits) for i in range(8)]
    status = StatusBank(8)
    scheduler = LinkScheduler(
        0,
        config,
        vcs,
        status,
        scheme,
        selection="per_output",
        rng=SeededRng(5, "cache"),
    )
    return scheduler, vcs, status


def park_flit(scheduler, index, interarrival=100.0, static=0.25):
    vc = scheduler.vcs[index]
    vc.bind(700 + index, ServiceClass.CBR, 1)
    vc.interarrival_cycles = interarrival
    vc.static_priority = static
    vc.enqueue(
        Flit(FlitType.DATA, connection_id=700 + index, created=0), now=0
    )
    # In a full router the control plane and Router.inject keep these terms.
    scheduler.refresh_terms(vc)
    status = scheduler.status
    status.vector("flits_available").set(index)
    status.vector("connection_active").set(index)
    status.vector("routed").set(index)
    return vc


def build_router(scheme):
    config = RouterConfig(
        num_ports=4, vcs_per_port=8, vc_buffer_flits=4, enforce_round_budgets=False
    )
    sim = Simulator()
    router = Router(config, scheme, GreedyPriorityScheduler(), sim, checked=True)
    return router, sim


def open_static(router, connection_id, static=0.25, interarrival=100.0):
    return router.open_connection(
        connection_id,
        0,
        1,
        BandwidthRequest(4),
        service_class=ServiceClass.CBR,
        interarrival_cycles=interarrival,
        static_priority=static,
    )


def router_flit(connection_id):
    return Flit(FlitType.DATA, connection_id=connection_id, created=0)


class TestRenegotiationInvalidatesCache:
    def test_stale_terms_without_invalidation(self):
        """The failure mode the refresh exists for: a parked head flit
        keeps competing under the old rate's bias after a renegotiation
        that does not refresh its terms."""
        scheduler, vcs, status = build_scheduler(BiasedPriority())
        vc = park_flit(scheduler, 2, interarrival=100.0)
        assert scheduler.candidates(50) == reference_alone(scheduler, 50)
        vc.interarrival_cycles = 4.0  # SET_BANDWIDTH, cache not dropped
        assert scheduler.candidates(60) != reference_alone(scheduler, 60)

    def test_invalidate_vc_restores_identity(self):
        scheduler, vcs, status = build_scheduler(BiasedPriority())
        vc = park_flit(scheduler, 2, interarrival=100.0)
        scheduler.candidates(50)
        vc.interarrival_cycles = 4.0
        scheduler.refresh_terms(vc)
        fast = scheduler.candidates(60)
        assert fast == reference_alone(scheduler, 60)
        assert -fast[0][0] == pytest.approx(60 / 4.0)

    def test_static_priority_rewrite_invalidates(self):
        """SET_PRIORITY under a static scheme: same flit, new base."""
        scheduler, vcs, status = build_scheduler(StaticConnectionPriority())
        vc = park_flit(scheduler, 1, static=0.25)
        before = scheduler.candidates(10)
        assert before == reference_alone(scheduler, 10)
        vc.static_priority = 0.75
        scheduler.refresh_terms(vc)
        after = scheduler.candidates(11)
        assert after == reference_alone(scheduler, 11)
        assert -after[0][0] != -before[0][0]

    def test_readmitted_vc_gets_new_terms(self):
        """A connection closed and a new one admitted onto the same VC
        index, with a different static priority: the new connection's
        first head flit competes under the new terms — written by the
        open (static terms follow the connection) or by the inject
        (frozen terms follow the flit)."""
        for scheme in (StaticConnectionPriority(), FrozenFlitPriority()):
            router, sim = build_router(scheme)
            scheduler = router.link_schedulers[0]
            first = open_static(router, 1, static=0.9)
            assert router.inject(0, first, router_flit(1))
            assert scheduler.candidates(sim.now) == reference_candidates(
                scheduler, sim.now, credit=router._credit_check
            )
            sim.run(5)  # the flit crosses the switch; the VC drains
            assert not router.input_ports[0].vcs[first].buffer
            router.close_connection(1, 0, first, 1, BandwidthRequest(4))
            second = open_static(router, 2, static=0.1)
            assert second == first  # the same VC, readmitted
            assert router.inject(0, second, router_flit(2))
            router.check_invariants()
            assert scheduler.candidates(sim.now) == reference_candidates(
                scheduler, sim.now, credit=router._credit_check
            )


class TestInvariantsAuditTheTerms:
    """``Router.check_invariants`` holds every VC holding a flit to
    ``scheme.cache_terms(vc, head)``: a control-plane write that skips
    the refresh is caught even though the scan never re-checks."""

    def park(self, scheme):
        router, _ = build_router(scheme)
        vc_index = open_static(router, 1)
        assert router.inject(0, vc_index, router_flit(1))
        router.check_invariants()
        return router, router.input_ports[0].vcs[vc_index]

    def test_interarrival_rewrite_without_refresh_is_caught(self):
        router, vc = self.park(BiasedPriority())
        vc.interarrival_cycles = 4.0  # SET_BANDWIDTH, terms not refreshed
        with pytest.raises(AssertionError, match="priority terms stale"):
            router.check_invariants()
        router.refresh_priority_terms(0, vc.index)
        router.check_invariants()

    def test_static_priority_rewrite_without_refresh_is_caught(self):
        router, vc = self.park(StaticConnectionPriority())
        vc.static_priority = 0.75  # SET_PRIORITY, terms not refreshed
        with pytest.raises(AssertionError, match="priority terms stale"):
            router.check_invariants()
        router.refresh_priority_terms(0, vc.index)
        router.check_invariants()


class TestChurnDrivenIdentity:
    def test_renegotiating_churn_fast_path_matches_reference(self, monkeypatch):
        """Churn with heavy renegotiation over parked flits: the fused
        scan must reproduce the reference walk's workload bit for bit.
        Fails pre-fix: renegotiate_bandwidth rewrites interarrival while
        head flits sit buffered, and without invalidation the fast path
        schedules them under stale bias."""
        kwargs = dict(
            num_sessions=120,
            num_nodes=6,
            mean_interarrival_cycles=120.0,
            mean_holding_cycles=6000.0,
            vbr_fraction=0.3,
            renegotiation_fraction=0.9,
            seed=23,
        )
        fast = run_churn_experiment(ChurnSpec(**kwargs))
        use_reference_walk(monkeypatch)
        reference = run_churn_experiment(ChurnSpec(**kwargs))
        for field in (
            "established",
            "blocked",
            "torn_down",
            "flits_delivered",
            "renegotiations_applied",
            "renegotiations_refused",
            "mean_delay_cycles",
            "mean_jitter_cycles",
            "setup_p99",
            "leak_free",
        ):
            assert getattr(reference, field) == getattr(fast, field), field
        assert reference.renegotiations_applied > 0
