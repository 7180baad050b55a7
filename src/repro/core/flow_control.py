"""Link-level virtual channel flow control (paper §3.1, §4.2).

The MMR uses credit-based flow control per virtual channel: a flit may only
be forwarded when the downstream buffer for its VC has a free slot, so no
flit is ever dropped.  Flit buffers are small, so back-pressure propagates
quickly, eventually reaching the source network interface, which is how the
router exports congestion information (and how frame-abort decisions are
driven, §4.3).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .status_vectors import BitVector


class CreditError(RuntimeError):
    """Raised on credit protocol violations (send without credit, etc.)."""


class LinkFlowControl:
    """Credit state for one output link's downstream virtual channels.

    ``credits[vc]`` counts free flit slots in the next router's input
    buffer for that VC.  A sink link (network edge, or the single-router
    harness) is modelled with ``infinite=True``: credits never deplete.
    The ``credits_available`` bit vector mirrors the counters so the link
    scheduler can fold credit state into its bit-parallel candidate
    selection.

    :meth:`consume` and :meth:`replenish` run once per flit hop and are
    held to the per-hop budget (DESIGN.md §7h): guards are inline
    comparisons, the availability bit one raw write when it changes.
    """

    def __init__(
        self,
        num_vcs: int,
        buffer_depth: int,
        infinite: bool = False,
    ) -> None:
        if num_vcs <= 0:
            raise ValueError(f"num_vcs must be positive, got {num_vcs}")
        if buffer_depth <= 0:
            raise ValueError(f"buffer_depth must be positive, got {buffer_depth}")
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.infinite = infinite
        self._credits: List[int] = [buffer_depth] * num_vcs
        self.credits_available = BitVector(num_vcs)
        self.credits_available.set_all()
        # Invoked as listener(vc, available) on every 0<->1 credit
        # transition, so the owning router can mirror downstream credit
        # state into the input port's ``credits_available`` status vector
        # instead of polling per scheduling decision.
        self.availability_listener: Optional[Callable[[int, bool], None]] = None
        # Stall accounting: how often a scheduling decision was blocked on
        # credits (useful for diagnosing back-pressure).
        self.credit_stalls = 0

    def credits(self, vc: int) -> int:
        """Remaining credits for ``vc``."""
        self._check(vc)
        return self._credits[vc]

    def has_credit(self, vc: int) -> bool:
        """True when a flit may be sent on ``vc`` right now."""
        self._check(vc)
        return self.infinite or self._credits[vc] > 0

    def consume(self, vc: int) -> None:
        """Spend one credit: a flit was forwarded downstream on ``vc``."""
        if not 0 <= vc < self.num_vcs:
            raise IndexError(f"vc {vc} out of range [0, {self.num_vcs})")
        if self.infinite:
            return
        credits = self._credits
        remaining = credits[vc] - 1
        if remaining < 0:
            raise CreditError(
                f"flit sent on vc {vc} without credit: protocol violation"
            )
        credits[vc] = remaining
        if not remaining:
            self.credits_available._bits &= ~(1 << vc)
            if self.availability_listener is not None:
                self.availability_listener(vc, False)

    def replenish(self, vc: int) -> None:
        """Return one credit: downstream freed a buffer slot on ``vc``."""
        if not 0 <= vc < self.num_vcs:
            raise IndexError(f"vc {vc} out of range [0, {self.num_vcs})")
        if self.infinite:
            return
        credits = self._credits
        held = credits[vc]
        if held >= self.buffer_depth:
            raise CreditError(
                f"credit overflow on vc {vc}: more credits returned than "
                f"buffer slots ({self.buffer_depth})"
            )
        credits[vc] = held + 1
        if not held:
            # The availability bit only changes on the 0 -> 1 transition.
            self.credits_available._bits |= 1 << vc
            if self.availability_listener is not None:
                self.availability_listener(vc, True)

    def note_stall(self) -> None:
        """Record that scheduling skipped a flit for lack of credit."""
        self.credit_stalls += 1

    def in_flight(self, vc: int) -> int:
        """Flits sent but not yet acknowledged as drained downstream."""
        self._check(vc)
        if self.infinite:
            return 0
        return self.buffer_depth - self._credits[vc]

    def _check(self, vc: int) -> None:
        if not 0 <= vc < self.num_vcs:
            raise IndexError(f"vc {vc} out of range [0, {self.num_vcs})")
