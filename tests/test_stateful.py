"""Stateful property tests (hypothesis rule-based state machines).

These drive the resource-management substrates — bandwidth registers,
credit flow control, channel mappings, VC pools — through long random
operation sequences, checking their invariants after every step.  The
invariants are exactly the ones the router relies on for correctness.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.bandwidth import BandwidthAllocator, BandwidthRequest
from repro.core.flow_control import LinkFlowControl
from repro.core.rau import ChannelMappingStore
from repro.core.router import InputPort
from repro.core.config import RouterConfig
from repro.core.virtual_channel import ServiceClass


class BandwidthMachine(RuleBasedStateMachine):
    """Allocate/release/renegotiate against a model of live requests."""

    def __init__(self):
        super().__init__()
        self.allocator = BandwidthAllocator(
            round_length=128, concurrency_factor=2.0
        )
        self.live = []

    @rule(permanent=st.integers(1, 40), extra=st.integers(0, 60))
    def allocate(self, permanent, extra):
        request = BandwidthRequest(permanent, permanent + extra if extra else 0)
        if self.allocator.allocate(request):
            self.live.append(request)

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 10**6))
    def release(self, index):
        request = self.live.pop(index % len(self.live))
        self.allocator.release(request)

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 10**6), permanent=st.integers(1, 40))
    def renegotiate(self, index, permanent):
        index %= len(self.live)
        old = self.live[index]
        new = BandwidthRequest(permanent, max(permanent, old.effective_peak))
        if self.allocator.renegotiate(old, new):
            self.live[index] = new

    @invariant()
    def registers_match_model(self):
        expected_permanent = sum(r.permanent_cycles for r in self.live)
        expected_peak = sum(r.effective_peak for r in self.live if r.is_vbr)
        assert self.allocator.allocated_cycles == expected_permanent
        assert self.allocator.peak_cycles == expected_peak
        assert self.allocator.active_connections == len(self.live)

    @invariant()
    def never_oversubscribed(self):
        assert self.allocator.allocated_cycles <= self.allocator.allocatable_cycles
        assert self.allocator.peak_cycles <= self.allocator.peak_budget


class CreditMachine(RuleBasedStateMachine):
    """Credit consume/replenish against an in-flight counter model."""

    def __init__(self):
        super().__init__()
        self.fc = LinkFlowControl(num_vcs=4, buffer_depth=3)
        self.in_flight = [0] * 4

    @rule(vc=st.integers(0, 3))
    def send(self, vc):
        if self.fc.has_credit(vc):
            self.fc.consume(vc)
            self.in_flight[vc] += 1

    @rule(vc=st.integers(0, 3))
    def drain(self, vc):
        if self.in_flight[vc] > 0:
            self.fc.replenish(vc)
            self.in_flight[vc] -= 1

    @invariant()
    def conservation(self):
        for vc in range(4):
            assert self.fc.credits(vc) + self.in_flight[vc] == 3
            assert self.fc.in_flight(vc) == self.in_flight[vc]
            assert self.fc.credits_available.test(vc) == (self.fc.credits(vc) > 0)


class MappingMachine(RuleBasedStateMachine):
    """Channel-mapping adds/removes stay mirror-consistent."""

    def __init__(self):
        super().__init__()
        self.store = ChannelMappingStore()
        self.model = {}
        self.next_id = 0

    @rule(in_ch=st.tuples(st.integers(0, 3), st.integers(0, 7)),
          out_ch=st.tuples(st.integers(0, 3), st.integers(0, 7)))
    def add(self, in_ch, out_ch):
        if in_ch in self.model or out_ch in set(self.model.values()):
            return
        self.next_id += 1
        self.store.add(self.next_id, in_ch, out_ch)
        self.model[in_ch] = out_ch

    @precondition(lambda self: self.model)
    @rule(index=st.integers(0, 10**6))
    def remove(self, index):
        in_ch = sorted(self.model)[index % len(self.model)]
        removed = self.store.remove_by_input(in_ch)
        assert removed.output_channel == self.model.pop(in_ch)

    @invariant()
    def mirrors_model(self):
        assert len(self.store) == len(self.model)
        for in_ch, out_ch in self.model.items():
            assert self.store.forward(in_ch).output_channel == out_ch
            assert self.store.backward(out_ch).input_channel == in_ch
        self.store.check_consistency()


class VcPoolMachine(RuleBasedStateMachine):
    """InputPort free-VC pool under bind/release churn."""

    def __init__(self):
        super().__init__()
        config = RouterConfig(num_ports=2, vcs_per_port=8)
        self.port = InputPort(0, config)
        self.bound = set()
        self.next_id = 0

    @rule()
    def bind(self):
        vc_index = self.port.find_free_vc()
        if vc_index is None:
            assert len(self.bound) == 8
            return
        self.next_id += 1
        self.port.bind_vc(vc_index, self.next_id, ServiceClass.CBR, 0)
        self.bound.add(vc_index)

    @precondition(lambda self: self.bound)
    @rule(index=st.integers(0, 10**6))
    def release(self, index):
        vc_index = sorted(self.bound)[index % len(self.bound)]
        self.port.vcs[vc_index].release()
        self.port.mark_free(vc_index)
        self.bound.remove(vc_index)

    @invariant()
    def pool_matches_bindings(self):
        assert self.port.free_vc_count() == 8 - len(self.bound)
        # Eight slots at the first binding, each VC built at its own.
        assert len(self.port.vcs) == (8 if self.next_id else 0)
        for index, vc in enumerate(self.port.vcs):
            if index in self.bound:
                assert vc.connection_id is not None
            else:
                assert vc is None or vc.connection_id is None

    @invariant()
    def lowest_free_first(self):
        free = [i for i in range(8) if i not in self.bound]
        expected = min(free) if free else None
        assert self.port.find_free_vc() == expected


TestBandwidthMachine = BandwidthMachine.TestCase
TestCreditMachine = CreditMachine.TestCase
TestMappingMachine = MappingMachine.TestCase
TestVcPoolMachine = VcPoolMachine.TestCase

for case in (
    TestBandwidthMachine,
    TestCreditMachine,
    TestMappingMachine,
    TestVcPoolMachine,
):
    case.settings = settings(max_examples=25, stateful_step_count=40)
