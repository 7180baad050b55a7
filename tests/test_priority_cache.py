"""Regression tests: the priority-term cache vs mid-flight control words.

The fused candidate scan caches each VC's priority terms
while the same head flit sits parked under the same connection.  A
SET_PRIORITY / SET_BANDWIDTH control word (or a teardown-and-readmission
reusing the VC) changes the inputs of that computation *without* moving
the head flit, so every such site must drop the cached terms — the
reference walk (``tests/reference_scheduler.py``) recomputes from scratch
each cycle and is the oracle.
"""

import pytest

from repro.core.config import RouterConfig
from repro.core.flit import Flit, FlitType
from repro.core.link_scheduler import LinkScheduler
from repro.core.priority import BiasedPriority, StaticConnectionPriority
from repro.core.status_vectors import StatusBank
from repro.core.virtual_channel import ServiceClass, VirtualChannel
from repro.harness.churn import ChurnSpec, run_churn_experiment
from repro.sim.rng import SeededRng

from tests.reference_scheduler import reference_candidates


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
        credit_check=lambda port, vc: True,
        selection="per_output",
        rng=SeededRng(5, "cache"),
    )
    return scheduler, vcs, status


def park_flit(vcs, status, index, interarrival=100.0, static=0.25):
    vc = vcs[index]
    vc.bind(700 + index, ServiceClass.CBR, 1)
    vc.interarrival_cycles = interarrival
    vc.static_priority = static
    vc.enqueue(
        Flit(FlitType.DATA, connection_id=700 + index, created=0), now=0
    )
    status.vector("flits_available").set(index)
    status.vector("connection_active").set(index)
    status.vector("routed").set(index)
    return vc


class TestRenegotiationInvalidatesCache:
    def test_stale_terms_without_invalidation(self):
        """The pre-fix failure mode: a parked head flit keeps competing
        under the old rate's bias after a renegotiation, because the
        cache key (head-flit identity, connection id) never changed."""
        scheduler, vcs, status = build_scheduler(BiasedPriority())
        vc = park_flit(vcs, status, 2, interarrival=100.0)
        assert scheduler.candidates(50) == reference_candidates(scheduler, 50)
        vc.interarrival_cycles = 4.0  # SET_BANDWIDTH, cache not dropped
        assert scheduler.candidates(60) != reference_candidates(scheduler, 60)

    def test_invalidate_vc_restores_identity(self):
        scheduler, vcs, status = build_scheduler(BiasedPriority())
        vc = park_flit(vcs, status, 2, interarrival=100.0)
        scheduler.candidates(50)  # populate the cache
        vc.interarrival_cycles = 4.0
        scheduler.invalidate_vc(vc)
        fast = scheduler.candidates(60)
        assert fast == reference_candidates(scheduler, 60)
        assert -fast[0][0] == pytest.approx(60 / 4.0)

    def test_static_priority_rewrite_invalidates(self):
        """SET_PRIORITY under a static scheme: same flit, new base."""
        scheduler, vcs, status = build_scheduler(StaticConnectionPriority())
        vc = park_flit(vcs, status, 1, static=0.25)
        before = scheduler.candidates(10)
        assert before == reference_candidates(scheduler, 10)
        vc.static_priority = 0.75
        scheduler.invalidate_vc(vc)
        after = scheduler.candidates(11)
        assert after == reference_candidates(scheduler, 11)
        assert -after[0][0] != -before[0][0]

    def test_connection_id_leg_catches_readmission(self):
        """A torn-down-and-readmitted connection on the same VC must not
        inherit the old terms even if the head-flit object is reused."""
        scheduler, vcs, status = build_scheduler(StaticConnectionPriority())
        vc = park_flit(vcs, status, 3, static=0.9)
        scheduler.candidates(5)
        # Same Flit object parked, but the VC now belongs to a different
        # connection with a different static priority (the reallocation
        # race the (vc, flit, connection) cache key exists for).
        vc.connection_id = 900
        vc.static_priority = 0.1
        fast = scheduler.candidates(6)
        assert fast == reference_candidates(scheduler, 6)
        assert -fast[0][0] == pytest.approx(
            -reference_candidates(scheduler, 6)[0][0]
        )


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
        monkeypatch.setattr(LinkScheduler, "candidates", reference_candidates)
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
