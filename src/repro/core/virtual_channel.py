"""Virtual channel state.

Each input port of the MMR hosts a large set of virtual channels (256 in
the evaluation).  A virtual channel holds a small fixed-size flit buffer
plus the per-connection scheduling state the link scheduler consults:
service class, allocated bandwidth, dynamic priority, and round-serviced
accounting.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Optional, Tuple, Union

from .flit import Flit


class ServiceClass(enum.Enum):
    """Traffic classes the scheduler distinguishes (paper §2, §3.4)."""

    CBR = "cbr"  # constant bit rate connection (PCS)
    VBR = "vbr"  # variable bit rate connection (PCS)
    CONTROL = "control"  # control packets: above data streams
    BEST_EFFORT = "best_effort"  # below data streams


# Traffic classes are strictly ordered: control packets above data streams,
# best-effort below (paper §3.4).  The offsets dominate any intra-class
# priority value so the ordering is absolute.
CLASS_OFFSETS = {
    ServiceClass.CONTROL: 1e12,
    ServiceClass.CBR: 0.0,
    ServiceClass.VBR: 0.0,
    ServiceClass.BEST_EFFORT: -1e12,
}


# What ``VirtualChannel.buffer`` holds before the first flit: the paper's
# virtual channel memory is one shared RAM per input link (§3.2), so a
# channel nobody uses owns no storage.  Recognised by type, not identity:
# an empty tuple that went through a checkpoint is still a tuple.
_NO_BUFFER: Tuple[()] = ()


class VirtualChannel:
    """One virtual channel: a bounded flit FIFO plus scheduling state.

    ``ready_time`` is stamped on a flit when it becomes the channel head:
    the head flit of a VC is what competes for the switch, so the paper's
    delay metric starts counting from that moment.

    ``buffer`` is the shared empty placeholder until the first
    :meth:`enqueue` allocates the ``deque``; :meth:`release` hands it
    back.  Readers only ever test it for truth, take its length or index
    a non-empty one, which the placeholder answers like an empty deque.

    ``prio_base``, ``prio_div`` and ``prio_key`` are the head flit's
    priority terms (``PriorityScheme.cache_terms``), kept current by
    their writers whenever the VC holds a flit; ``Router.check_invariants``
    audits them.  The VC knows no scheme, so :meth:`enqueue` and
    :meth:`dequeue` do not write them: code that moves flits with those
    instead of the router's flit path refreshes the terms through
    ``LinkScheduler.refresh_terms``.
    """

    __slots__ = (
        "port",
        "index",
        "capacity",
        "buffer",
        "connection_id",
        "service_class",
        "class_offset",
        "output_port",
        "output_vc",
        "allocated_cycles",
        "permanent_cycles",
        "peak_cycles",
        "static_priority",
        "interarrival_cycles",
        "serviced_this_round",
        "round_offset",
        "prio_base",
        "prio_div",
        "prio_key",
    )

    def __init__(self, port: int, index: int, capacity: int) -> None:
        self.port = port
        self.index = index
        self.capacity = capacity
        self.buffer: Union[Deque[Flit], Tuple[()]] = _NO_BUFFER
        # Connection binding (None when the VC is free).
        self.connection_id: Optional[int] = None
        self.service_class: ServiceClass = ServiceClass.BEST_EFFORT
        # ``CLASS_OFFSETS[service_class]``, resolved where the class is
        # set (here, bind, release) so the per-head-flit priority terms
        # never hash the enum.
        self.class_offset: float = CLASS_OFFSETS[ServiceClass.BEST_EFFORT]
        self.output_port: int = -1
        self.output_vc: int = -1
        # Bandwidth state (flit cycles per round).
        self.allocated_cycles: int = 0  # CBR allocation / VBR not used
        self.permanent_cycles: int = 0  # VBR permanent bandwidth
        self.peak_cycles: int = 0  # VBR peak bandwidth
        # Priorities.
        self.static_priority: float = 0.0
        # Mean flit inter-arrival period, in cycles (drives biased priority).
        self.interarrival_cycles: float = 1.0
        # Flit cycles consumed in the current round.
        self.serviced_this_round: int = 0
        # Cached priority offset of the VC's current round tier (0.0 in
        # contract, the VBR excess offset beyond it); owned by
        # LinkScheduler.refresh_round_state.
        self.round_offset: float = 0.0
        # The head flit's priority terms, ``scheme.cache_terms(vc, head)``:
        # current whenever the VC holds a flit.  Their writers keep them
        # so — LinkScheduler.refresh_terms after a control-plane write of
        # a priority input, and Router.inject / Router._transmit where a
        # flit becomes head if the terms follow the flit — and the
        # candidate scan only reads them.
        self.prio_base: float = 0.0
        self.prio_div: float = 1.0
        self.prio_key: int = 0

    def __reduce_ex__(self, protocol):
        """Pickle an untouched VC as its three constructor arguments.

        Unbound with the placeholder buffer means nothing has happened to
        the VC since ``__init__`` or :meth:`release`, which both leave
        every slot at its default — so a checkpoint's size follows the
        VCs in use, not the VCs provisioned.
        """
        if self.connection_id is None and type(self.buffer) is tuple:
            return VirtualChannel, (self.port, self.index, self.capacity)
        return super().__reduce_ex__(protocol)

    # ----- connection binding ---------------------------------------------

    @property
    def is_free(self) -> bool:
        """True when no connection is bound and the buffer is empty."""
        return self.connection_id is None and not self.buffer

    def bind(
        self,
        connection_id: int,
        service_class: ServiceClass,
        output_port: int,
        output_vc: int = -1,
    ) -> None:
        """Reserve this VC for a connection."""
        if self.connection_id is not None:
            raise RuntimeError(
                f"VC {self.port}.{self.index} already bound to connection "
                f"{self.connection_id}"
            )
        self.connection_id = connection_id
        self.service_class = service_class
        self.class_offset = CLASS_OFFSETS[service_class]
        self.output_port = output_port
        self.output_vc = output_vc

    def release(self) -> None:
        """Free the VC (connection torn down or packet fully sent).

        Every slot goes back to its constructor default, not only the
        ones a later bind would overwrite: ``__reduce_ex__`` stores a
        released VC as its constructor arguments.
        """
        if self.buffer:
            raise RuntimeError(
                f"cannot release VC {self.port}.{self.index}: "
                f"{len(self.buffer)} flits still buffered"
            )
        self.buffer = _NO_BUFFER
        self.connection_id = None
        self.service_class = ServiceClass.BEST_EFFORT
        self.class_offset = CLASS_OFFSETS[ServiceClass.BEST_EFFORT]
        self.output_port = -1
        self.output_vc = -1
        self.allocated_cycles = 0
        self.permanent_cycles = 0
        self.peak_cycles = 0
        self.static_priority = 0.0
        self.interarrival_cycles = 1.0
        self.serviced_this_round = 0
        self.round_offset = 0.0
        self.prio_base = 0.0
        self.prio_div = 1.0
        self.prio_key = 0

    # ----- buffer operations -----------------------------------------------

    @property
    def occupancy(self) -> int:
        """Flits currently buffered."""
        return len(self.buffer)

    @property
    def is_full(self) -> bool:
        """True when the buffer cannot accept another flit."""
        return len(self.buffer) >= self.capacity

    def enqueue(self, flit: Flit, now: int) -> None:
        """Accept an arriving flit; stamps ready_time if it becomes head.
        (``Router.inject`` carries this body inline: keep them in step.)"""
        buffer = self.buffer
        occupancy = len(buffer)
        if occupancy >= self.capacity:
            raise RuntimeError(
                f"VC {self.port}.{self.index} overflow: flow control failed"
            )
        if not occupancy:
            flit.ready_time = now
            if type(buffer) is tuple:
                buffer = self.buffer = deque()
        buffer.append(flit)

    def head(self) -> Optional[Flit]:
        """The flit competing for the switch, or None."""
        return self.buffer[0] if self.buffer else None

    def dequeue(self, now: int) -> Flit:
        """Remove the head flit (it won switch arbitration at ``now``).
        (``Router._transmit`` carries this body inline: keep them in step.)"""
        buffer = self.buffer
        if not buffer:
            raise RuntimeError(f"VC {self.port}.{self.index} empty")
        flit = buffer.popleft()
        if buffer:
            # The next flit becomes head now — of this VC, exactly once:
            # overwrite whatever stamp it carries from an earlier hop.
            buffer[0].ready_time = now
        return flit

    def __repr__(self) -> str:
        return (
            f"VirtualChannel(port={self.port}, index={self.index}, "
            f"conn={self.connection_id}, class={self.service_class.value}, "
            f"occupancy={self.occupancy}/{self.capacity})"
        )
