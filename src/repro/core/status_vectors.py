"""Status bit vectors (paper §4.1).

The MMR trades silicon for scheduling speed: per-virtual-channel conditions
(``flits_available``, ``input_buffer_full``, ``cbr_service_requested``, ...)
are kept as bit vectors so the set of channels satisfying a compound
condition falls out of wide AND/OR operations in one step.

We model a vector as an arbitrary-precision Python integer bitmask, which
gives exactly the same bulk-parallel semantics (``&``, ``|``, ``~``) the
hardware exploits.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional


#: ``BYTE_BITS[value]``: the offsets of the set bits of one byte value,
#: ascending — the table the byte walk (:func:`set_bits`) reads.
BYTE_BITS = tuple(
    tuple(offset for offset in range(8) if value >> offset & 1)
    for value in range(256)
)


def set_bits(bits: int) -> List[int]:
    """The indices of the set bits of a non-negative ``bits``, ascending.

    The byte walk: one ``to_bytes`` of the mask, then each non-zero byte
    names its set bits through :data:`BYTE_BITS`.  That is a table read
    per byte instead of, per set bit, a ``bit_length`` and three big-int
    operations (negate, isolate the lowest bit, clear it), each of which
    builds a new int as wide as the mask.
    ``LinkScheduler.candidates`` carries this walk inline.
    """
    indices = []
    base = 0
    for byte in bits.to_bytes((bits.bit_length() + 7) >> 3, "little"):
        if byte:
            for offset in BYTE_BITS[byte]:
                indices.append(base + offset)
        base += 8
    return indices


class BitVector:
    """A fixed-width vector of per-virtual-channel status bits."""

    __slots__ = ("width", "_bits", "_mask")

    def __init__(self, width: int, bits: int = 0) -> None:
        if width <= 0:
            raise ValueError(f"BitVector width must be positive, got {width}")
        self.width = width
        self._mask = (1 << width) - 1
        if bits & ~self._mask:
            raise ValueError(f"bits 0x{bits:x} exceed width {width}")
        self._bits = bits

    # ----- single-bit operations ----------------------------------------

    def set(self, index: int) -> None:
        """Set bit ``index`` to 1."""
        self._check(index)
        self._bits |= 1 << index

    def clear(self, index: int) -> None:
        """Set bit ``index`` to 0."""
        self._check(index)
        self._bits &= ~(1 << index)

    def assign(self, index: int, value: bool) -> None:
        """Set bit ``index`` to ``value``."""
        if value:
            self.set(index)
        else:
            self.clear(index)

    def test(self, index: int) -> bool:
        """Read bit ``index``."""
        self._check(index)
        return bool(self._bits >> index & 1)

    def _check(self, index: int) -> None:
        if not 0 <= index < self.width:
            raise IndexError(f"bit {index} out of range [0, {self.width})")

    # ----- bulk operations ------------------------------------------------

    def clear_all(self) -> None:
        """Reset every bit to 0."""
        self._bits = 0

    def set_all(self) -> None:
        """Set every bit to 1."""
        self._bits = self._mask

    def count(self) -> int:
        """Population count."""
        return self._bits.bit_count()

    def any(self) -> bool:
        """True when at least one bit is set."""
        return self._bits != 0

    def indices(self) -> Iterator[int]:
        """Yield the set-bit indices in ascending order (:func:`set_bits`).

        ``tests/test_status_vectors.py`` property-tests this walk against
        the naive test-every-index scan on random vectors.
        """
        return iter(set_bits(self._bits))

    def first_set(self) -> int:
        """Lowest set-bit index, or -1 when empty (a priority encoder)."""
        if not self._bits:
            return -1
        return (self._bits & -self._bits).bit_length() - 1

    def as_int(self) -> int:
        """Raw mask value."""
        return self._bits

    # ----- combinational logic ---------------------------------------------

    def _coerce(self, other: "BitVector") -> int:
        if self.width != other.width:
            raise ValueError(
                f"width mismatch: {self.width} vs {other.width}"
            )
        return other._bits

    def __and__(self, other: "BitVector") -> "BitVector":
        return BitVector(self.width, self._bits & self._coerce(other))

    def __or__(self, other: "BitVector") -> "BitVector":
        return BitVector(self.width, self._bits | self._coerce(other))

    def __xor__(self, other: "BitVector") -> "BitVector":
        return BitVector(self.width, self._bits ^ self._coerce(other))

    def __invert__(self) -> "BitVector":
        return BitVector(self.width, ~self._bits & self._mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.width == other.width and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self.width, self._bits))

    def __repr__(self) -> str:
        return f"BitVector(width={self.width}, bits=0x{self._bits:x})"


class ActivitySet:
    """A component's activity bits: one raw integer mask.

    The simulation kernel asks each ticker it is stepping "do you have
    work this cycle?", so the answer must be O(1).  An ``ActivitySet`` gives
    a component one bit per activity source (a port with flits buffered, a
    pending crossbar teardown, an asynchronous cut-through in flight ...);
    sources set and clear their bit as state changes, and ``active()`` is a
    single integer test — the same trade of state for scheduling speed the
    paper's status vectors make (§4.1).

    Pass the set itself as the ``activity`` argument of
    :meth:`repro.sim.engine.Simulator.add_ticker` (its bound ``active``
    method works too, but a bare callable can only be polled every cycle).

    ``on_wake``, when set, is invoked on every idle-to-busy transition
    (the whole set going from zero to nonzero).  It belongs to the
    simulation kernel, which installs it when the set is registered with
    ``add_ticker``: a sleeping ticker's first new activity bit puts it
    back on the kernel's awake list, so nobody polls idle components.
    """

    __slots__ = ("width", "_bits", "on_wake")

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError(f"ActivitySet width must be positive, got {width}")
        self.width = width
        self._bits = 0  # the raw mask: the router reads it inline (§7h)
        self.on_wake: Optional[Callable[[], None]] = None

    def set(self, index: int) -> None:
        """Mark activity source ``index`` busy."""
        self._check(index)
        bits = self._bits
        self._bits = bits | 1 << index
        if not bits:
            hook = self.on_wake
            if hook is not None:
                hook()

    def clear(self, index: int) -> None:
        """Mark activity source ``index`` idle."""
        self._check(index)
        self._bits &= ~(1 << index)

    def assign(self, index: int, busy: bool) -> None:
        """Set activity source ``index`` to ``busy``."""
        if busy:
            self.set(index)
        else:
            self.clear(index)

    def test(self, index: int) -> bool:
        """Read activity source ``index``."""
        self._check(index)
        return bool(self._bits >> index & 1)

    def _check(self, index: int) -> None:
        if not 0 <= index < self.width:
            raise IndexError(f"bit {index} out of range [0, {self.width})")

    def active(self) -> bool:
        """True while any activity source is busy (one integer test)."""
        return self._bits != 0

    def as_int(self) -> int:
        """Raw mask of busy sources (for masked multi-bit reads)."""
        return self._bits

    def __bool__(self) -> bool:
        return self._bits != 0

    def __repr__(self) -> str:
        return f"ActivitySet(width={self.width}, bits=0x{self._bits:x})"


class StatusBank:
    """The named status vectors associated with one physical link.

    The paper's examples include ``flits_available``, ``input_buffer_full``,
    ``CBR_service_requested``, ``CBR_bandwidth_serviced`` and
    ``VBR_bandwidth_serviced``; further conditions can be added with
    :meth:`register`.  All vectors in a bank share one width (the VC
    count).
    """

    STANDARD_VECTORS = (
        "flits_available",
        "credits_available",
        "input_buffer_full",
        "cbr_service_requested",
        "cbr_bandwidth_serviced",
        "vbr_service_requested",
        "vbr_bandwidth_serviced",
        "connection_active",
        # Scan vectors (see DESIGN.md §7, "Candidate scan"): a VC's
        # output port is resolved / its round budget is spent, maintained
        # incrementally so candidate selection is one fused AND.
        "routed",
        "round_budget_exhausted",
    )

    def __init__(self, width: int) -> None:
        self.width = width
        self._vectors: Dict[str, BitVector] = {
            name: BitVector(width) for name in self.STANDARD_VECTORS
        }
        # Credits start available: an idle downstream buffer is empty.
        self._vectors["credits_available"].set_all()

    def vector(self, name: str) -> BitVector:
        """Fetch the vector called ``name``.

        ``name`` must be a standard vector or one previously added with
        :meth:`register`; unknown names raise ``KeyError``.  (Auto-creating
        on first use turned every typo — ``"flit_available"`` for
        ``"flits_available"`` — into a permanently empty vector that made
        its condition silently unsatisfiable.)
        """
        try:
            return self._vectors[name]
        except KeyError:
            raise KeyError(
                f"unknown status vector {name!r}; register it explicitly "
                f"(known: {', '.join(sorted(self._vectors))})"
            ) from None

    def register(self, name: str) -> BitVector:
        """Add (or fetch, when already present) a custom vector ``name``."""
        if name not in self._vectors:
            self._vectors[name] = BitVector(self.width)
        return self._vectors[name]

    def names(self) -> List[str]:
        """All registered vector names."""
        return sorted(self._vectors)

    def eligible_for_service(self) -> BitVector:
        """VCs with flits to send and downstream credit — the basic
        schedulable set, computed as one wide AND (paper §4.1)."""
        return self._vectors["flits_available"] & self._vectors["credits_available"]

    def schedulable(self) -> BitVector:
        """The fused fast-path mask: flits AND credits AND routed AND NOT
        round-budget-exhausted.  This is the exact eligibility set
        :meth:`repro.core.link_scheduler.LinkScheduler.candidates` walks —
        one wide boolean expression instead of per-VC Python checks."""
        return (
            self._vectors["flits_available"]
            & self._vectors["credits_available"]
            & self._vectors["routed"]
            & ~self._vectors["round_budget_exhausted"]
        )

    def cbr_candidates(self) -> BitVector:
        """The paper's worked example: channels with flits available,
        credits available, CBR service requested and not yet completely
        serviced this round."""
        return (
            self._vectors["flits_available"]
            & self._vectors["credits_available"]
            & self._vectors["cbr_service_requested"]
            & ~self._vectors["cbr_bandwidth_serviced"]
        )
