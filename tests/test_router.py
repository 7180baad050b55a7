"""Tests for the Router top level: connection lifecycle and the flit path."""

from collections import deque

import pytest

from repro.core.bandwidth import BandwidthRequest
from repro.core.config import RouterConfig
from repro.core.flit import Flit, FlitType
from repro.core.priority import BiasedPriority
from repro.core.router import Router
from repro.core.switch_scheduler import (
    GreedyPriorityScheduler,
    PerfectSwitchScheduler,
)
from repro.core.virtual_channel import ServiceClass
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng


def small_config(**overrides):
    base = dict(
        num_ports=4,
        vcs_per_port=8,
        vc_buffer_flits=4,
        enforce_round_budgets=False,
    )
    base.update(overrides)
    return RouterConfig(**base)


def make_router(config=None, scheduler=None, **router_kwargs):
    config = config or small_config()
    sim = Simulator()
    router = Router(
        config,
        BiasedPriority(),
        scheduler or GreedyPriorityScheduler(),
        sim,
        checked=True,
        **router_kwargs,
    )
    return router, sim


def open_cbr(router, connection_id=1, input_port=0, output_port=1, cycles=4):
    return router.open_connection(
        connection_id,
        input_port,
        output_port,
        BandwidthRequest(cycles),
        service_class=ServiceClass.CBR,
        interarrival_cycles=10.0,
    )


def data_flit(connection_id=1, created=0, **kwargs):
    return Flit(FlitType.DATA, connection_id=connection_id, created=created, **kwargs)


class TestConnectionLifecycle:
    def test_open_reserves_vc_and_bandwidth(self):
        router, _ = make_router()
        vc_index = open_cbr(router)
        assert vc_index == 0
        vc = router.input_ports[0].vcs[vc_index]
        assert vc.connection_id == 1
        assert vc.output_port == 1
        assert router.admission.outputs[1].allocated_cycles == 4
        assert router.input_ports[0].status.vector("connection_active").test(0)
        assert router.input_ports[0].status.vector("cbr_service_requested").test(0)

    def test_open_fails_when_bandwidth_exhausted(self):
        config = small_config(round_factor=1)
        router, _ = make_router(config)
        cap = config.round_length
        assert open_cbr(router, 1, cycles=cap) is not None
        assert open_cbr(router, 2, cycles=1) is None
        assert router.stats.get_counter("connections_refused") == 1

    def test_open_fails_when_no_free_vc(self):
        router, _ = make_router()
        for i in range(8):
            assert open_cbr(router, i + 1, cycles=1) is not None
        assert open_cbr(router, 99, cycles=1) is None

    def test_close_restores_resources(self):
        router, _ = make_router()
        vc_index = open_cbr(router)
        router.close_connection(1, 0, vc_index, 1, BandwidthRequest(4))
        assert router.admission.outputs[1].allocated_cycles == 0
        assert router.input_ports[0].vcs[vc_index].is_free
        assert router.input_ports[0].find_free_vc() == 0

    def test_free_pool_hands_out_the_lowest_free_vc(self):
        router, _ = make_router()
        port = router.input_ports[0]
        assert port.free_vc_count() == 8
        opened = [open_cbr(router, i + 1, cycles=1) for i in range(4)]
        assert opened == [0, 1, 2, 3]
        assert port.free_vc_count() == 4
        router.close_connection(2, 0, 1, 1, BandwidthRequest(1))
        router.close_connection(4, 0, 3, 1, BandwidthRequest(1))
        assert port.free_vc_count() == 6
        assert port.find_free_vc() == 1
        assert open_cbr(router, 9, cycles=1) == 1
        assert port.find_free_vc() == 3
        router.check_invariants()
        port.mark_bound(5)  # pool says bound, VC 5 is not
        with pytest.raises(AssertionError, match="free pool desync at 0.5"):
            router.check_invariants()

    def test_idle_vcs_own_no_buffer_storage(self):
        """Per-VC storage follows the VCs in use (paper §3.2: the VC
        memory is one shared RAM per link, not a FIFO per channel)."""

        def deques(router):
            return sum(
                isinstance(vc.buffer, deque)
                for port in router.input_ports
                for vc in port.vcs
                if vc is not None
            )

        router, sim = make_router(small_config(num_ports=8, vcs_per_port=256))
        assert deques(router) == 0
        vc_index = open_cbr(router)
        assert deques(router) == 0  # bound, nothing received yet
        router.inject(0, vc_index, data_flit())
        router.inject(0, vc_index, data_flit())
        assert deques(router) == 1
        sim.run(4)
        assert router.buffered_flits() == 0
        router.close_connection(1, 0, vc_index, 1, BandwidthRequest(4))
        assert deques(router) == 0
        router.check_invariants()

    def test_close_wrong_connection_rejected(self):
        router, _ = make_router()
        vc_index = open_cbr(router)
        with pytest.raises(RuntimeError):
            router.close_connection(999, 0, vc_index, 1, BandwidthRequest(4))

    def test_vbr_connection_state(self):
        router, _ = make_router()
        vc_index = router.open_connection(
            7, 0, 2, BandwidthRequest(3, 9), service_class=ServiceClass.VBR
        )
        vc = router.input_ports[0].vcs[vc_index]
        assert vc.permanent_cycles == 3
        assert vc.peak_cycles == 9
        assert router.input_ports[0].status.vector("vbr_service_requested").test(
            vc_index
        )

    def test_renegotiate_updates_registers_and_vc(self):
        router, _ = make_router()
        vc_index = open_cbr(router, cycles=4)
        vc = router.input_ports[0].vcs[vc_index]
        vc.allocated_cycles = 4
        old, new = BandwidthRequest(4), BandwidthRequest(6)
        assert router.renegotiate_connection(0, vc_index, old, new)
        assert router.admission.outputs[1].allocated_cycles == 6
        assert router.admission.inputs[0].allocated_cycles == 6
        assert vc.allocated_cycles == 6

    def test_renegotiate_refused_when_full(self):
        config = small_config(round_factor=1)
        router, _ = make_router(config)
        cap = config.round_length
        vc_index = open_cbr(router, 1, output_port=1, cycles=cap // 2)
        open_cbr(router, 2, input_port=1, output_port=1, cycles=cap // 2)
        old = BandwidthRequest(cap // 2)
        assert not router.renegotiate_connection(0, vc_index, old, BandwidthRequest(cap))
        assert router.admission.outputs[1].allocated_cycles == cap

    def test_renegotiate_unbound_vc_rejected(self):
        router, _ = make_router()
        with pytest.raises(RuntimeError):
            router.renegotiate_connection(
                0, 3, BandwidthRequest(1), BandwidthRequest(2)
            )


class TestPortsBuiltAtFirstBinding:
    """An input port builds its VCs the first time one of them is bound;
    until then it holds none and counts as all unbound."""

    def test_only_bound_ports_are_built(self):
        router, _ = make_router()
        assert [len(port.vcs) for port in router.input_ports] == [0, 0, 0, 0]
        open_cbr(router, 1, input_port=2)
        assert [len(port.vcs) for port in router.input_ports] == [0, 0, 8, 0]
        # Filled in place: the link scheduler reads the same list.
        assert router.link_schedulers[2].vcs is router.input_ports[2].vcs
        router.check_invariants()

    def test_packet_vc_builds_its_port(self):
        router, _ = make_router()
        router.open_packet_vc(3, 0, ServiceClass.BEST_EFFORT, 9)
        assert [len(port.vcs) for port in router.input_ports] == [0, 0, 0, 8]

    def test_a_port_stays_built_after_its_last_release(self):
        router, _ = make_router()
        vc_index = open_cbr(router, 1)
        router.close_connection(1, 0, vc_index, 1, BandwidthRequest(4))
        assert len(router.input_ports[0].vcs) == 8
        assert router.input_ports[0].free_vc_count() == 8
        router.check_invariants()

    @pytest.mark.parametrize(
        "call",
        [
            lambda r: r.assign_route(1, 0, 2),
            lambda r: r.close_connection(1, 1, 0, 2, BandwidthRequest(1)),
            lambda r: r.renegotiate_connection(
                1, 0, BandwidthRequest(1), BandwidthRequest(2)
            ),
        ],
        ids=["assign_route", "close_connection", "renegotiate_connection"],
    )
    def test_control_plane_on_an_unbuilt_port_is_refused(self, call):
        router, _ = make_router()
        with pytest.raises(RuntimeError, match="1.0"):
            call(router)
        assert not router.input_ports[1].vcs
        router.check_invariants()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda p: p.status.vector("routed").set(5), "routed desync at 1.5"),
            (
                lambda p: p.status.vector("connection_active").set(2),
                "connection_active desync at 1.2",
            ),
            (
                lambda p: p.status.vector("round_budget_exhausted").set(0),
                "round_budget_exhausted desync at 1.0",
            ),
            (
                lambda p: p.status.vector("credits_available").clear(7),
                "credits_available not parked at port 1",
            ),
            (lambda p: p.mark_bound(4), "free pool desync at port 1"),
        ],
        ids=["routed", "active", "exhausted", "credits", "free_pool"],
    )
    def test_invariants_hold_an_unbuilt_port_to_all_unbound(self, corrupt, message):
        router, _ = make_router()
        corrupt(router.input_ports[1])
        with pytest.raises(AssertionError, match=message):
            router.check_invariants()

    @pytest.mark.parametrize("selection", ["rotating", "priority", "per_output"])
    def test_no_link_stream_without_random_selection(self, selection):
        router, _ = make_router(selection=selection, rng=SeededRng(4, "r"))
        assert all(s.rng is None for s in router.link_schedulers)

    def test_random_selection_keeps_its_link_streams(self):
        router, _ = make_router(selection="random", rng=SeededRng(4, "r"))
        for port, scheduler in enumerate(router.link_schedulers):
            expected = SeededRng(4, "r").spawn(f"link{port}")
            assert scheduler.rng.getstate() == expected.getstate()


class TestFlitPath:
    def test_inject_into_an_unbound_vc_is_refused(self):
        """On an unbuilt port, and on an unbound VC of a built one
        (before any binding and after a release): the flit would sit in
        a VC nothing routes for ever."""
        router, sim = make_router()
        with pytest.raises(RuntimeError, match="unbound VC 0.3"):
            router.inject(0, 3, data_flit())
        vc_index = open_cbr(router, 1)
        with pytest.raises(RuntimeError, match="unbound VC 0.3"):
            router.inject(0, 3, data_flit())
        router.close_connection(1, 0, vc_index, 1, BandwidthRequest(4))
        with pytest.raises(RuntimeError, match=f"unbound VC 0.{vc_index}"):
            router.inject(0, vc_index, data_flit())
        assert router.buffered_flits() == 0
        router.check_invariants()

    def test_inject_and_transmit(self):
        router, sim = make_router()
        vc_index = open_cbr(router)
        flit = data_flit(created=0)
        assert router.inject(0, vc_index, flit)
        sim.run(2)
        assert flit.depart_time == 1
        assert flit.switch_delay() == 1
        assert router.connection_stats[1].flits == 1
        assert router.stats.get_counter("flits_switched") == 1

    def test_fifo_within_connection(self):
        router, sim = make_router()
        vc_index = open_cbr(router)
        flits = [data_flit(created=0, sequence=i) for i in range(3)]
        for f in flits:
            router.inject(0, vc_index, f)
        sim.run(5)
        departs = [f.depart_time for f in flits]
        assert departs == sorted(departs)
        assert len(set(departs)) == 3  # one per cycle

    def test_inject_refused_when_full(self):
        router, _ = make_router()
        vc_index = open_cbr(router)
        for i in range(4):
            assert router.inject(0, vc_index, data_flit())
        assert not router.inject(0, vc_index, data_flit())
        assert router.stats.get_counter("inject_blocked") == 1
        assert router.input_ports[0].status.vector("input_buffer_full").test(vc_index)

    def test_output_conflict_serialises(self):
        router, sim = make_router()
        a = open_cbr(router, 1, input_port=0, output_port=2)
        b = open_cbr(router, 2, input_port=1, output_port=2)
        fa, fb = data_flit(1), data_flit(2)
        router.inject(0, a, fa)
        router.inject(1, b, fb)
        sim.run(3)
        assert {fa.depart_time, fb.depart_time} == {1, 2}

    def test_perfect_switch_no_conflict(self):
        router, sim = make_router(scheduler=PerfectSwitchScheduler(4))
        a = open_cbr(router, 1, input_port=0, output_port=2)
        b = open_cbr(router, 2, input_port=1, output_port=2)
        fa, fb = data_flit(1), data_flit(2)
        router.inject(0, a, fa)
        router.inject(1, b, fb)
        sim.run(2)
        assert fa.depart_time == 1
        assert fb.depart_time == 1

    def test_output_handler_called(self):
        router, sim = make_router()
        delivered = []
        router.set_output_handler(1, lambda flit, vc: delivered.append(flit))
        vc_index = open_cbr(router)
        flit = data_flit()
        router.inject(0, vc_index, flit)
        sim.run(2)
        assert delivered == [flit]

    def test_credit_return_handler_called(self):
        router, sim = make_router()
        returns = []
        router.set_credit_return_handler(0, returns.append)
        vc_index = open_cbr(router)
        router.inject(0, vc_index, data_flit())
        sim.run(2)
        assert returns == [vc_index]

    def test_utilisation(self):
        router, sim = make_router()
        vc_index = open_cbr(router)
        router.inject(0, vc_index, data_flit())
        sim.run(4)
        # 1 flit over 4 cycles x 4 ports.
        assert router.utilisation() == pytest.approx(1 / 16)

    def test_buffered_flits(self):
        router, _ = make_router()
        vc_index = open_cbr(router)
        router.inject(0, vc_index, data_flit())
        router.inject(0, vc_index, data_flit())
        assert router.buffered_flits() == 2
        other = open_cbr(router, 2, input_port=3, output_port=2)
        router.inject(3, other, data_flit(2))
        assert router.buffered_flits() == 3

    def test_reset_statistics(self):
        router, sim = make_router()
        vc_index = open_cbr(router)
        router.inject(0, vc_index, data_flit())
        sim.run(2)
        router.reset_statistics()
        assert router.stats.get_counter("flits_switched") == 0
        assert router.connection_stats[1].flits == 0
        # Connection state survives the reset.
        assert router.input_ports[0].vcs[vc_index].connection_id == 1


class TestPacketVcs:
    def test_open_packet_vc_bypasses_admission(self):
        config = small_config(round_factor=1)
        router, _ = make_router(config)
        open_cbr(router, 1, cycles=config.round_length)  # input link full
        vc_index = router.open_packet_vc(0, 2, ServiceClass.BEST_EFFORT, 50)
        assert vc_index is not None

    def test_packet_classes_only(self):
        router, _ = make_router()
        with pytest.raises(ValueError):
            router.open_packet_vc(0, 1, ServiceClass.CBR, 50)

    def test_packet_vc_released_after_tail(self):
        router, sim = make_router()
        vc_index = router.open_packet_vc(0, 1, ServiceClass.BEST_EFFORT, 50)
        flit = Flit(FlitType.BEST_EFFORT, connection_id=50, is_tail=True)
        router.inject(0, vc_index, flit)
        sim.run(2)
        assert router.input_ports[0].vcs[vc_index].is_free
        assert router.stats.get_counter("packet_vcs_released") == 1

    def test_no_free_vc_returns_none(self):
        router, _ = make_router()
        for i in range(8):
            router.open_packet_vc(0, 1, ServiceClass.BEST_EFFORT, i)
        assert router.open_packet_vc(0, 1, ServiceClass.BEST_EFFORT, 99) is None
        assert router.stats.get_counter("packet_vc_blocked") == 1

    def test_best_effort_loses_to_data(self):
        router, sim = make_router()
        data_vc = open_cbr(router, 1, input_port=0, output_port=2)
        be_vc = router.open_packet_vc(1, 2, ServiceClass.BEST_EFFORT, 50)
        data = data_flit(1)
        best_effort = Flit(FlitType.BEST_EFFORT, connection_id=50, is_tail=True)
        router.inject(1, be_vc, best_effort)
        router.inject(0, data_vc, data)
        sim.run(3)
        assert data.depart_time == 1
        assert best_effort.depart_time == 2


class TestImmediateCutThrough:
    def test_control_flit_cuts_through_idle_output(self):
        router, sim = make_router()
        vc_index = router.open_packet_vc(0, 3, ServiceClass.CONTROL, 60)
        flit = Flit(FlitType.CONTROL, connection_id=60, created=0, is_tail=True)
        delivered = []
        router.set_output_handler(3, lambda f, vc: delivered.append(f))
        assert router.inject(0, vc_index, flit)
        # Delivered synchronously, without waiting for a flit cycle.
        assert delivered == [flit]
        assert router.stats.get_counter("immediate_cut_throughs") == 1
        # The VC was released right away.
        assert router.input_ports[0].vcs[vc_index].is_free

    def test_second_control_same_cycle_buffers(self):
        router, sim = make_router()
        a = router.open_packet_vc(0, 3, ServiceClass.CONTROL, 60)
        flit_a = Flit(FlitType.CONTROL, connection_id=60, is_tail=True)
        router.inject(0, a, flit_a)
        b = router.open_packet_vc(1, 3, ServiceClass.CONTROL, 61)
        flit_b = Flit(FlitType.CONTROL, connection_id=61, is_tail=True)
        router.inject(1, b, flit_b)
        # Output 3 was consumed by the first cut-through this cycle.
        assert flit_b.depart_time is None
        sim.run(2)
        assert flit_b.depart_time is not None

    def test_data_flits_never_cut_through(self):
        router, sim = make_router()
        vc_index = open_cbr(router)
        flit = data_flit()
        router.inject(0, vc_index, flit)
        assert flit.depart_time is None  # waits for the flit cycle
