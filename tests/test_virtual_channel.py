"""Tests for virtual channel state and buffer semantics."""

import pickle
from collections import deque

import pytest

from repro.core.flit import Flit, FlitType
from repro.core.virtual_channel import ServiceClass, VirtualChannel


def make_vc(capacity=4):
    return VirtualChannel(port=0, index=5, capacity=capacity)


def data_flit(created=0):
    return Flit(FlitType.DATA, connection_id=1, created=created)


class TestBinding:
    def test_starts_free(self):
        vc = make_vc()
        assert vc.is_free
        assert vc.connection_id is None

    def test_bind_sets_connection_state(self):
        vc = make_vc()
        vc.bind(7, ServiceClass.CBR, output_port=3, output_vc=11)
        assert vc.connection_id == 7
        assert vc.service_class is ServiceClass.CBR
        assert vc.output_port == 3
        assert vc.output_vc == 11
        assert not vc.is_free

    def test_double_bind_rejected(self):
        vc = make_vc()
        vc.bind(1, ServiceClass.CBR, 0)
        with pytest.raises(RuntimeError):
            vc.bind(2, ServiceClass.CBR, 0)

    def test_release_resets_everything(self):
        vc = make_vc()
        vc.bind(1, ServiceClass.VBR, 2, 3)
        vc.allocated_cycles = 5
        vc.permanent_cycles = 3
        vc.peak_cycles = 9
        vc.static_priority = 0.7
        vc.interarrival_cycles = 10.0
        vc.serviced_this_round = 2
        vc.release()
        assert vc.is_free
        assert vc.allocated_cycles == 0
        assert vc.permanent_cycles == 0
        assert vc.peak_cycles == 0
        assert vc.static_priority == 0.0
        assert vc.interarrival_cycles == 1.0
        assert vc.serviced_this_round == 0

    @pytest.mark.parametrize("slot", VirtualChannel.__slots__)
    def test_release_restores_constructor_default(self, slot):
        """Over ``__slots__``, so a slot added later cannot be forgotten:
        an untouched VC is checkpointed as its constructor arguments, which
        is only sound if release() really leaves nothing behind."""
        vc = make_vc()
        vc.bind(1, ServiceClass.VBR, 2, 3)
        vc.enqueue(data_flit(), now=0)
        vc.dequeue(now=1)
        dirty = object()
        for name in VirtualChannel.__slots__:
            if name not in ("port", "index", "capacity", "buffer"):
                setattr(vc, name, dirty)
        vc.release()
        fresh = make_vc()
        assert type(getattr(vc, slot)) is type(getattr(fresh, slot))
        assert getattr(vc, slot) == getattr(fresh, slot)

    def test_release_with_buffered_flits_rejected(self):
        vc = make_vc()
        vc.bind(1, ServiceClass.CBR, 0)
        vc.enqueue(data_flit(), now=0)
        with pytest.raises(RuntimeError):
            vc.release()


class TestBuffer:
    def test_enqueue_dequeue_fifo(self):
        vc = make_vc()
        flits = [data_flit() for _ in range(3)]
        for f in flits:
            vc.enqueue(f, now=0)
        out = [vc.dequeue(now=1) for _ in range(3)]
        assert out == flits

    def test_head_without_removal(self):
        vc = make_vc()
        f = data_flit()
        vc.enqueue(f, now=0)
        assert vc.head() is f
        assert vc.occupancy == 1

    def test_head_empty_is_none(self):
        assert make_vc().head() is None

    def test_overflow_raises(self):
        vc = make_vc(capacity=2)
        vc.enqueue(data_flit(), now=0)
        vc.enqueue(data_flit(), now=0)
        assert vc.is_full
        with pytest.raises(RuntimeError):
            vc.enqueue(data_flit(), now=0)

    def test_underflow_raises(self):
        with pytest.raises(RuntimeError):
            make_vc().dequeue(now=0)

    def test_ready_time_stamped_when_head(self):
        vc = make_vc()
        first = data_flit(created=5)
        second = data_flit(created=5)
        vc.enqueue(first, now=5)
        vc.enqueue(second, now=6)
        assert first.ready_time == 5
        assert second.ready_time is None
        vc.dequeue(now=9)
        assert second.ready_time == 9

    def test_ready_time_of_enqueue_into_empty(self):
        vc = make_vc()
        f = data_flit(created=2)
        vc.enqueue(f, now=4)
        assert f.ready_time == 4

    def test_occupancy_tracking(self):
        vc = make_vc(capacity=3)
        assert vc.occupancy == 0
        vc.enqueue(data_flit(), now=0)
        vc.enqueue(data_flit(), now=0)
        assert vc.occupancy == 2
        vc.dequeue(now=1)
        assert vc.occupancy == 1
        assert not vc.is_full

    def test_no_deque_until_first_flit_and_none_after_release(self):
        vc = make_vc()
        assert not isinstance(vc.buffer, deque)
        assert vc.occupancy == 0 and not vc.is_full and vc.head() is None
        vc.bind(1, ServiceClass.CBR, 0)
        assert not isinstance(vc.buffer, deque)  # bound but silent
        vc.enqueue(data_flit(), now=0)
        assert isinstance(vc.buffer, deque)
        vc.dequeue(now=1)
        assert isinstance(vc.buffer, deque)  # kept while the VC is in use
        vc.release()
        assert not isinstance(vc.buffer, deque)

    def test_repr(self):
        vc = make_vc()
        assert "port=0" in repr(vc)
        assert "index=5" in repr(vc)


class TestPickle:
    def test_untouched_vc_pickles_as_constructor_arguments(self):
        vc = make_vc()
        assert vc.__reduce_ex__(pickle.HIGHEST_PROTOCOL) == (
            VirtualChannel,
            (0, 5, 4),
        )
        used = make_vc()
        used.bind(1, ServiceClass.CBR, 0)
        used.enqueue(data_flit(), now=0)
        used.dequeue(now=1)
        used.release()
        assert used.__reduce_ex__(pickle.HIGHEST_PROTOCOL) == (
            VirtualChannel,
            (0, 5, 4),
        )

    def test_bound_silent_vc_round_trips_and_still_allocates(self):
        """The placeholder is recognised by type: the copy that comes out
        of a pickle must turn into a deque at its first flit too."""
        vc = make_vc()
        vc.bind(7, ServiceClass.VBR, output_port=3, output_vc=11)
        vc.permanent_cycles = 3
        vc.serviced_this_round = 2
        copy = pickle.loads(pickle.dumps(vc, pickle.HIGHEST_PROTOCOL))
        for slot in VirtualChannel.__slots__:
            assert getattr(copy, slot) == getattr(vc, slot), slot
        flit = data_flit()
        copy.enqueue(flit, now=4)
        assert isinstance(copy.buffer, deque)
        assert copy.head() is flit and flit.ready_time == 4

    def test_buffering_vc_round_trips_with_its_flits(self):
        vc = make_vc()
        vc.bind(1, ServiceClass.CBR, 0)
        vc.enqueue(data_flit(created=1), now=1)
        vc.enqueue(data_flit(created=2), now=2)
        copy = pickle.loads(pickle.dumps(vc, pickle.HIGHEST_PROTOCOL))
        assert copy.occupancy == 2
        assert [f.created for f in copy.buffer] == [1, 2]
        assert copy.connection_id == 1

    def test_unbound_vc_that_was_written_to_keeps_its_state(self):
        """Only an *untouched* VC is reduced to its arguments: flits
        injected into an unbound VC leave a serviced count behind that a
        resumed run must see."""
        vc = make_vc()
        vc.enqueue(data_flit(), now=0)
        vc.dequeue(now=1)
        vc.serviced_this_round = 1
        copy = pickle.loads(pickle.dumps(vc, pickle.HIGHEST_PROTOCOL))
        assert copy.serviced_this_round == 1
