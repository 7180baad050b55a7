"""Tests for link scheduling: candidate selection and round accounting."""

import pytest

from repro.core.config import RouterConfig
from repro.core.flit import Flit, FlitType
from repro.core.link_scheduler import VBR_EXCESS_OFFSET, LinkScheduler
from repro.core.priority import BiasedPriority, StaticConnectionPriority
from repro.core.status_vectors import StatusBank
from repro.core.virtual_channel import ServiceClass, VirtualChannel
from repro.sim.rng import SeededRng

from tests.reference_scheduler import reference_candidates


def build(
    num_vcs=8,
    candidates=4,
    scheme=None,
    selection="per_output",
    credit_ok=True,
    enforce_budgets=True,
    vbr_excess_discipline="priority",
):
    config = RouterConfig(
        num_ports=4,
        vcs_per_port=num_vcs,
        candidates=candidates,
        enforce_round_budgets=enforce_budgets,
        vbr_excess_discipline=vbr_excess_discipline,
    )
    vcs = [VirtualChannel(0, i, config.vc_buffer_flits) for i in range(num_vcs)]
    status = StatusBank(num_vcs)
    scheduler = LinkScheduler(
        0,
        config,
        vcs,
        status,
        scheme or BiasedPriority(),
        credit_check=lambda port, vc: credit_ok,
        selection=selection,
        rng=SeededRng(1, "ls"),
    )
    return scheduler, vcs, status


def activate(vcs, status, index, output_port, service=ServiceClass.CBR, created=0,
             interarrival=10.0, static=0.0):
    vc = vcs[index]
    vc.bind(100 + index, service, output_port)
    vc.interarrival_cycles = interarrival
    vc.static_priority = static
    flit = Flit(FlitType.DATA, connection_id=100 + index, created=created)
    vc.enqueue(flit, now=created)
    status.vector("flits_available").set(index)
    status.vector("connection_active").set(index)
    if output_port >= 0:
        # In a full router this is Router.assign_route's job; standalone
        # scheduler tests mirror the route into the vector by hand.
        status.vector("routed").set(index)
    return vc


class TestCandidateSelection:
    def test_empty_when_no_flits(self):
        scheduler, _, _ = build()
        assert scheduler.candidates(now=0) == []

    def test_offers_eligible_vcs(self):
        scheduler, vcs, status = build()
        activate(vcs, status, 2, output_port=1)
        activate(vcs, status, 5, output_port=3)
        offered = scheduler.candidates(now=5)
        assert {vc_index for _, _, vc_index, _ in offered} == {2, 5}
        assert all(input_port == 0 for _, input_port, _, _ in offered)

    def test_respects_candidate_limit(self):
        scheduler, vcs, status = build(candidates=2)
        for i in range(6):
            activate(vcs, status, i, output_port=i % 4)
        assert len(scheduler.candidates(now=5)) == 2

    def test_credit_gating(self):
        scheduler, vcs, status = build(credit_ok=False)
        activate(vcs, status, 0, output_port=1)
        # The scan reads the credits_available vector (the router
        # mirrors downstream credit state into it); the reference walk
        # polls the credit_check callable.  Gate both.
        status.vector("credits_available").clear(0)
        assert scheduler.candidates(now=5) == []
        assert reference_candidates(scheduler, 5) == []

    def test_desynchronised_status_vector_detected(self):
        scheduler, vcs, status = build()
        status.vector("flits_available").set(3)  # no flit actually queued
        status.vector("routed").set(3)  # keep it in the fused mask
        with pytest.raises(RuntimeError, match="out of sync"):
            scheduler.candidates(now=0)
        with pytest.raises(RuntimeError, match="out of sync"):
            reference_candidates(scheduler, 0)

    def test_priority_order_in_output(self):
        scheduler, vcs, status = build(selection="priority")
        activate(vcs, status, 0, output_port=0, created=5)   # young
        activate(vcs, status, 1, output_port=1, created=0)   # old -> higher
        offered = scheduler.candidates(now=10)
        assert [vc_index for _, _, vc_index, _ in offered] == [1, 0]

    def test_per_output_dedupes_outputs(self):
        scheduler, vcs, status = build(selection="per_output", candidates=8)
        activate(vcs, status, 0, output_port=2, created=5)
        activate(vcs, status, 1, output_port=2, created=0)  # older, wins slot
        activate(vcs, status, 2, output_port=3, created=3)
        offered = scheduler.candidates(now=10)
        assert {output_port for _, _, _, output_port in offered} == {2, 3}
        port2 = next(c for c in offered if c[3] == 2)
        assert port2[2] == 1

    def test_random_selection_needs_rng(self):
        config = RouterConfig(num_ports=4, vcs_per_port=4)
        with pytest.raises(ValueError):
            LinkScheduler(
                0, config, [], StatusBank(4), BiasedPriority(),
                lambda p, v: True, selection="random", rng=None,
            )

    def test_unknown_selection_rejected(self):
        config = RouterConfig(num_ports=4, vcs_per_port=4)
        with pytest.raises(ValueError):
            LinkScheduler(
                0, config, [], StatusBank(4), BiasedPriority(),
                lambda p, v: True, selection="best",
            )

    def test_random_selection_bounded(self):
        scheduler, vcs, status = build(selection="random", candidates=2)
        for i in range(5):
            activate(vcs, status, i, output_port=i % 4)
        offered = scheduler.candidates(now=1)
        assert len(offered) == 2

    def test_rotating_selection_is_fair(self):
        scheduler, vcs, status = build(selection="rotating", candidates=1)
        for i in range(4):
            activate(vcs, status, i, output_port=0, created=0)
        seen = set()
        for t in range(8):
            offered = scheduler.candidates(now=t + 1)
            assert len(offered) == 1
            seen.add(offered[0][2])
        assert seen == {0, 1, 2, 3}

    def test_counters(self):
        scheduler, vcs, status = build()
        activate(vcs, status, 0, output_port=0)
        scheduler.candidates(now=1)
        assert scheduler.candidates_offered == 1
        assert scheduler.cycles_with_candidates == 1

    def test_rotating_pointer_advances_on_underfull_scans(self):
        """Regression: the rotating pointer must advance even when the
        eligible pool fits within the candidate limit.  It used to stay
        put through a quiet spell, so the next oversubscribed scan
        resumed from a stale pointer and re-favoured low-index VCs."""
        scheduler, vcs, status = build(selection="rotating", candidates=1)
        # Quiet spell: only VC 0 is eligible; each scan fits the limit.
        activate(vcs, status, 0, output_port=0, created=0)
        for t in range(3):
            offered = scheduler.candidates(now=t + 1)
            assert [vc_index for _, _, vc_index, _ in offered] == [0]
        # Burst: VCs 0..3 all eligible.  A fair scan resumes past the VC
        # serviced during the quiet spell instead of re-favouring VC 0.
        for i in range(1, 4):
            activate(vcs, status, i, output_port=0, created=0)
        offered = scheduler.candidates(now=10)
        assert [vc_index for _, _, vc_index, _ in offered] == [1]

    def test_rotating_full_pool_scan_keeps_cycling(self):
        """A scan that takes the whole pool wraps the full circle; the
        next limited scan continues from where the wrap ended."""
        scheduler, vcs, status = build(selection="rotating", candidates=8)
        for i in range(4):
            activate(vcs, status, i, output_port=0, created=0)
        offered = scheduler.candidates(now=1)  # pool of 4 fits limit 8
        assert {vc_index for _, _, vc_index, _ in offered} == {0, 1, 2, 3}
        # Pointer wrapped past VC 3 back to 0; a limit-2 scan starts there.
        offered = scheduler.candidates(now=2, limit=2)
        assert {vc_index for _, _, vc_index, _ in offered} == {0, 1}
        offered = scheduler.candidates(now=3, limit=2)
        assert {vc_index for _, _, vc_index, _ in offered} == {2, 3}

    @pytest.mark.parametrize("limit", [0, -1])
    @pytest.mark.parametrize(
        "selection", ["per_output", "priority", "random", "rotating"]
    )
    def test_non_positive_limit_is_refused(self, selection, limit):
        """An explicit limit below 1 used to raise ``IndexError``
        (rotating), return an offer over the limit (priority, one VC) or
        return ``[]`` while counting a scan (per_output, random)."""
        scheduler, vcs, status = build(selection=selection)
        activate(vcs, status, 0, output_port=1)
        activate(vcs, status, 3, output_port=2)
        with pytest.raises(ValueError, match="limit must be positive"):
            scheduler.candidates(now=1, limit=limit)
        status.vector("flits_available").clear(3)  # one eligible VC
        with pytest.raises(ValueError, match="limit must be positive"):
            scheduler.candidates(now=1, limit=limit)
        assert scheduler.cycles_with_candidates == 0
        assert scheduler.candidates_offered == scheduler.eligible_vcs_total == 0
        assert scheduler._scan_pointer == 0
        assert len(scheduler.candidates(now=1, limit=1)) == 1


class TestRoundBudgets:
    def test_cbr_capped_at_allocation(self):
        scheduler, vcs, status = build()
        vc = activate(vcs, status, 0, output_port=0)
        vc.allocated_cycles = 2
        status.vector("cbr_service_requested").set(0)
        scheduler.on_flit_serviced(vc)
        assert scheduler.candidates(now=1)  # 1 of 2 used
        scheduler.on_flit_serviced(vc)
        assert status.vector("cbr_bandwidth_serviced").test(0)
        assert scheduler.candidates(now=2) == []  # budget exhausted

    def test_round_boundary_resets_budget(self):
        scheduler, vcs, status = build()
        vc = activate(vcs, status, 0, output_port=0)
        vc.allocated_cycles = 1
        scheduler.on_flit_serviced(vc)
        assert scheduler.candidates(now=1) == []
        scheduler.on_round_boundary()
        assert vc.serviced_this_round == 0
        assert not status.vector("cbr_bandwidth_serviced").test(0)
        assert scheduler.candidates(now=2)

    def test_budgets_ignored_when_disabled(self):
        scheduler, vcs, status = build(enforce_budgets=False)
        vc = activate(vcs, status, 0, output_port=0)
        vc.allocated_cycles = 1
        scheduler.on_flit_serviced(vc)
        scheduler.on_flit_serviced(vc)
        assert scheduler.candidates(now=1)  # no gating

    def test_vbr_permanent_then_excess_tier(self):
        scheduler, vcs, status = build(scheme=StaticConnectionPriority())
        vc = activate(
            vcs, status, 0, output_port=0, service=ServiceClass.VBR, static=0.5
        )
        vc.permanent_cycles = 1
        vc.peak_cycles = 3
        in_contract = -scheduler.candidates(now=1)[0][0]
        scheduler.on_flit_serviced(vc)
        excess = -scheduler.candidates(now=2)[0][0]
        # Excess tier priority is pushed below in-contract data.
        assert excess < in_contract
        # Offset + dominated connection priority + the scheme's own value.
        assert excess == pytest.approx(VBR_EXCESS_OFFSET + 0.5e6 + 0.5)

    def test_vbr_capped_at_peak(self):
        scheduler, vcs, status = build()
        vc = activate(vcs, status, 0, output_port=0, service=ServiceClass.VBR)
        vc.permanent_cycles = 1
        vc.peak_cycles = 2
        scheduler.on_flit_serviced(vc)
        scheduler.on_flit_serviced(vc)
        assert status.vector("vbr_bandwidth_serviced").test(0)
        assert scheduler.candidates(now=1) == []

    def test_vbr_excess_ordered_by_connection_priority(self):
        # §4.3: excess bandwidth serviced one connection at a time, in
        # priority order.
        scheduler, vcs, status = build(
            scheme=StaticConnectionPriority(), candidates=8
        )
        low = activate(
            vcs, status, 0, output_port=0, service=ServiceClass.VBR, static=0.1
        )
        high = activate(
            vcs, status, 1, output_port=1, service=ServiceClass.VBR, static=0.9
        )
        for vc in (low, high):
            vc.permanent_cycles = 1
            vc.peak_cycles = 5
            scheduler.on_flit_serviced(vc)  # consume the permanent cycle
        offered = scheduler.candidates(now=3)
        assert [vc_index for _, _, vc_index, _ in offered] == [1, 0]


class TestVbrRoundAccounting:
    """Round accounting for VBR VCs across a round boundary (§4.3).

    ``vbr_bandwidth_serviced`` is only set once a VC reaches its peak
    allocation, and ``on_round_boundary`` resets serviced counters through
    two partially overlapping paths (the serviced vectors and the
    ``connection_active`` sweep); these pin the combined behaviour for
    permanent-only, permanent->excess and peak-capped VCs under both
    excess-service disciplines.
    """

    def _vbr(self, scheduler, vcs, status, index, *, permanent, peak,
             static=0.5, output_port=0):
        vc = activate(
            vcs, status, index, output_port=output_port,
            service=ServiceClass.VBR, static=static,
        )
        vc.permanent_cycles = permanent
        vc.peak_cycles = peak
        status.vector("vbr_service_requested").set(index)
        return vc

    @pytest.mark.parametrize("discipline", ["priority", "shared"])
    def test_permanent_only_vc_stays_in_contract(self, discipline):
        scheduler, vcs, status = build(
            scheme=StaticConnectionPriority(), vbr_excess_discipline=discipline
        )
        vc = self._vbr(scheduler, vcs, status, 0, permanent=3, peak=5)
        scheduler.on_flit_serviced(vc)
        scheduler.on_flit_serviced(vc)  # 2 of 3 permanent cycles
        offered = scheduler.candidates(now=1)
        assert offered and -offered[0][0] == pytest.approx(0.5)
        assert not status.vector("vbr_bandwidth_serviced").test(0)
        scheduler.on_round_boundary()
        # Reset arrives via the connection_active sweep (no serviced bit).
        assert vc.serviced_this_round == 0

    @pytest.mark.parametrize("discipline,expected_offset", [
        ("priority", VBR_EXCESS_OFFSET + 0.5e6),
        ("shared", VBR_EXCESS_OFFSET),
    ])
    def test_excess_tier_resets_to_contract_at_boundary(
        self, discipline, expected_offset
    ):
        scheduler, vcs, status = build(
            scheme=StaticConnectionPriority(), vbr_excess_discipline=discipline
        )
        vc = self._vbr(scheduler, vcs, status, 0, permanent=1, peak=4)
        scheduler.on_flit_serviced(vc)  # permanent consumed -> excess tier
        excess = -scheduler.candidates(now=1)[0][0]
        assert excess == pytest.approx(expected_offset + 0.5)
        assert not status.vector("vbr_bandwidth_serviced").test(0)
        scheduler.on_round_boundary()
        assert vc.serviced_this_round == 0
        back = -scheduler.candidates(now=2)[0][0]
        assert back == pytest.approx(0.5)  # in-contract again

    @pytest.mark.parametrize("discipline", ["priority", "shared"])
    def test_peak_capped_vc_regains_service_after_boundary(self, discipline):
        scheduler, vcs, status = build(
            scheme=StaticConnectionPriority(), vbr_excess_discipline=discipline
        )
        vc = self._vbr(scheduler, vcs, status, 0, permanent=1, peak=2)
        scheduler.on_flit_serviced(vc)
        scheduler.on_flit_serviced(vc)  # hits the peak cap
        assert status.vector("vbr_bandwidth_serviced").test(0)
        assert scheduler.candidates(now=1) == []
        scheduler.on_round_boundary()
        # The VC is reset exactly once despite matching both reset paths
        # (serviced vector AND connection_active sweep).
        assert vc.serviced_this_round == 0
        assert not status.vector("vbr_bandwidth_serviced").test(0)
        offered = scheduler.candidates(now=2)
        assert offered and -offered[0][0] == pytest.approx(0.5)

    @pytest.mark.parametrize("discipline", ["priority", "shared"])
    def test_mixed_population_round_boundary(self, discipline):
        """Permanent-only, excess-tier and peak-capped VCs plus a CBR VC
        all come out of a round boundary with clean accounting."""
        scheduler, vcs, status = build(
            scheme=StaticConnectionPriority(),
            candidates=8,
            vbr_excess_discipline=discipline,
        )
        permanent_only = self._vbr(
            scheduler, vcs, status, 0, permanent=3, peak=6, static=0.1
        )
        in_excess = self._vbr(
            scheduler, vcs, status, 1, permanent=1, peak=6, static=0.2,
            output_port=1,
        )
        capped = self._vbr(
            scheduler, vcs, status, 2, permanent=1, peak=2, static=0.3,
            output_port=2,
        )
        cbr = activate(vcs, status, 3, output_port=3, static=0.4)
        cbr.allocated_cycles = 1
        status.vector("cbr_service_requested").set(3)
        scheduler.on_flit_serviced(permanent_only)
        scheduler.on_flit_serviced(in_excess)
        scheduler.on_flit_serviced(in_excess)
        scheduler.on_flit_serviced(capped)
        scheduler.on_flit_serviced(capped)
        scheduler.on_flit_serviced(cbr)
        assert status.vector("vbr_bandwidth_serviced").test(2)
        assert status.vector("cbr_bandwidth_serviced").test(3)
        offered = {c[2] for c in scheduler.candidates(now=1)}
        assert offered == {0, 1}  # capped VBR and capped CBR gated off
        scheduler.on_round_boundary()
        for vc in (permanent_only, in_excess, capped, cbr):
            assert vc.serviced_this_round == 0
        assert not status.vector("vbr_bandwidth_serviced").any()
        assert not status.vector("cbr_bandwidth_serviced").any()
        offered = {c[2] for c in scheduler.candidates(now=2)}
        assert offered == {0, 1, 2, 3}


class TestCandidateDataclass:
    """An offer is (-priority, input_port, vc_index, output_port): its
    natural order is the arbitration order."""

    def test_sort_key_descending_priority(self):
        a = (-2.0, 0, 1, 0)
        b = (-1.0, 0, 2, 0)
        assert sorted([b, a])[0] is a

    def test_sort_key_tie_break_by_vc(self):
        a = (-1.0, 0, 5, 0)
        b = (-1.0, 0, 2, 0)
        assert sorted([a, b])[0] is b


class TestUnroutedPackets:
    def test_unrouted_vc_not_offered(self):
        """A best-effort packet whose routing is still blocked (no
        downstream VC, output_port == -1) must not become a candidate —
        granting it would configure the crossbar with an invalid port."""
        scheduler, vcs, status = build()
        vc = activate(
            vcs, status, 0, output_port=-1, service=ServiceClass.BEST_EFFORT
        )
        assert scheduler.candidates(now=5) == []
        # Once routing assigns an output the packet becomes schedulable.
        # (In a full router Router.assign_route sets the field and the
        # routed bit together.)
        vc.output_port = 2
        status.vector("routed").set(0)
        offered = scheduler.candidates(now=6)
        assert len(offered) == 1
        assert offered[0][3] == 2
