"""Link scheduling (paper §4.1, §4.3, §4.4).

One link scheduler serves each physical input link.  Every flit cycle it
derives the set of schedulable virtual channels from the status bit
vectors (flits available AND credits available AND round budget not
exhausted) and offers the switch scheduler a small *candidate set* —
1 to 8 VCs in the paper's study — ordered by the active priority scheme.

Round-based accounting implements the paper's QoS discipline:

* CBR connections may consume at most their allocated flit cycles per
  round (``cbr_bandwidth_serviced`` gates them off once satisfied);
* VBR connections are served up to their permanent bandwidth at data
  priority, and between permanent and peak in a lower *excess* tier where
  connections are drained one at a time in priority order ("completely
  servicing the excess bandwidth of one connection before moving to the
  next one");
* control packets ride above all data, best-effort below.

Offers and grants are plain tuples.  An *offer* is
``(rank, input_port, vc_index, output_port)`` with
``rank = -(priority + round_offset)``, so ascending tuple order is the
arbitration order: highest priority, then lowest input port, then lowest
VC index.  Every offer list is handed on in that order, and a *grant* is
an offer without its rank, ``(input_port, vc_index, output_port)``.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Sequence, Tuple

from ..sim.rng import SeededRng
from .config import RouterConfig
from .priority import PriorityScheme
from .status_vectors import StatusBank
from .virtual_channel import ServiceClass, VirtualChannel

# Priority offset pushing VBR excess-bandwidth service below every
# in-contract data stream but far above best-effort traffic (whose class
# offset is -1e12).
VBR_EXCESS_OFFSET = -1e9

#: One offer to the switch scheduler: ``(rank, input_port, vc_index,
#: output_port)``, ordered as the module docstring states.
Candidate = Tuple[float, int, int, int]


class LinkScheduler:
    """Candidate selection and round accounting for one input link."""

    def __init__(
        self,
        port: int,
        config: RouterConfig,
        vcs: Sequence[VirtualChannel],
        status: StatusBank,
        scheme: PriorityScheme,
        credit_check: Callable[[int, int], bool],
        selection: str = "priority",
        rng: Optional[SeededRng] = None,
    ) -> None:
        """``credit_check(output_port, output_vc)`` must report downstream
        credit.

        ``selection`` picks how the candidate set is drawn from the
        eligible set (the bit-vector AND of §4.1):

        * ``'rotating'`` — the MMR: a round-robin scan over eligible VCs,
          as a hardware priority encoder with a rotating start pointer
          produces.  Candidate choice is fair; the priority *scheme*
          decides conflicts.  This keeps switch utilisation insensitive to
          the priority scheme, as §5.2 observes.
        * ``'priority'`` — take the C highest-priority flits (ablation;
          with non-aging priorities a stuck flit can mask its whole port).
        * ``'random'`` — uniformly random C (the Autonet/DEC baseline).
        * ``'per_output'`` — the highest-priority eligible flit for each
          requested output link, then the top C of those.  This is the
          natural reading of the §4.1 bit-vector hardware (one vector
          per condition, grouped per output) and prevents one stuck flit
          from masking flits bound for other outputs.
        """
        if selection not in ("rotating", "priority", "random", "per_output"):
            raise ValueError(f"unknown selection mode {selection!r}")
        if selection == "random" and rng is None:
            raise ValueError("random selection requires an rng")
        self.port = port
        self.config = config
        self.vcs = vcs
        self.status = status
        self.scheme = scheme
        self.credit_check = credit_check
        self.selection = selection
        self.rng = rng
        self.candidates_offered = 0
        self.cycles_with_candidates = 0
        # Size of the eligible set before candidate-set truncation, summed
        # per scan (sampled by the flight recorder): the set bits of the
        # fused mask.
        self.eligible_vcs_total = 0
        # VBR service-tier accounting (§4.4): flits granted within the
        # permanent allocation vs in the excess (permanent..peak) tier.
        self.vbr_permanent_grants = 0
        self.vbr_excess_grants = 0
        # Rotating-scan start pointer (the hardware round-robin encoder).
        self._scan_pointer = 0
        # Hot-path handles: candidate selection and round accounting run
        # every busy cycle, so resolve the status vectors once.
        self._flits_available = status.vector("flits_available")
        self._credits_available = status.vector("credits_available")
        self._routed = status.vector("routed")
        self._exhausted = status.vector("round_budget_exhausted")
        self._cbr_serviced = status.vector("cbr_bandwidth_serviced")
        self._vbr_serviced = status.vector("vbr_bandwidth_serviced")
        self._connection_active = status.vector("connection_active")
        self._candidate_limit = config.candidates
        self._enforce = config.enforce_round_budgets
        # Integer dispatch code for the priority scheme's time dependence
        # (see PriorityScheme.time_dependence); keeps the scan's inner
        # loop to an int compare instead of a string compare.
        self._scheme_dep = {"static": 0, "aging": 1, "hashed": 2}.get(
            scheme.time_dependence, 3
        )

    def invalidate_vc(self, vc: VirtualChannel) -> None:
        """Drop the VC's cached priority terms.

        The cache is keyed on (head-flit identity, connection id); this
        resets both components so a torn-down-and-readmitted connection
        on the same VC — or a renegotiated contract under the same head
        flit — never inherits stale terms.  Call after any mutation of a
        priority input (binding, route, interarrival, static priority,
        service contract).
        """
        vc.prio_flit = None
        vc.prio_conn = None

    # ----- round accounting --------------------------------------------------

    def on_round_boundary(self) -> None:
        """Reset per-round serviced counters and the serviced bit vectors.

        One pass over the OR of the three vectors that can mark a VC as
        touched this round — a VC both serviced and active is visited
        once, not three times.
        """
        vcs = self.vcs
        bits = (
            self._cbr_serviced._bits
            | self._vbr_serviced._bits
            | self._connection_active._bits
        )
        while bits:
            low = bits & -bits
            bits ^= low
            vc = vcs[low.bit_length() - 1]
            vc.serviced_this_round = 0
            self.refresh_round_state(vc)
        self._cbr_serviced.clear_all()
        self._vbr_serviced.clear_all()

    def on_flit_serviced(self, vc: VirtualChannel) -> None:
        """Account one transmitted flit against the VC's round budget."""
        vc.serviced_this_round += 1
        if vc.service_class is ServiceClass.CBR:
            if vc.allocated_cycles and vc.serviced_this_round >= vc.allocated_cycles:
                self._cbr_serviced.set(vc.index)
        elif vc.service_class is ServiceClass.VBR:
            if vc.serviced_this_round <= vc.permanent_cycles:
                self.vbr_permanent_grants += 1
            else:
                self.vbr_excess_grants += 1
            if vc.peak_cycles and vc.serviced_this_round >= vc.peak_cycles:
                self._vbr_serviced.set(vc.index)
        if self._enforce:
            self.refresh_round_state(vc)

    def refresh_round_state(self, vc: VirtualChannel) -> None:
        """Recompute the VC's exhausted bit and cached tier offset.

        Mirrors :meth:`_round_gate` exactly: ``round_budget_exhausted``
        holds the cases where the gate returns None, ``vc.round_offset``
        the offset it would return otherwise.  Called whenever an input of
        the gate changes — a flit serviced, a round boundary, a (re)bind
        or renegotiation — so the scan never evaluates the gate.
        """
        exhausted = False
        offset = 0.0
        if self._enforce:
            service_class = vc.service_class
            if service_class is ServiceClass.CBR:
                exhausted = bool(vc.allocated_cycles) and (
                    vc.serviced_this_round >= vc.allocated_cycles
                )
            elif service_class is ServiceClass.VBR:
                if vc.serviced_this_round < vc.permanent_cycles:
                    pass
                elif vc.peak_cycles and vc.serviced_this_round >= vc.peak_cycles:
                    exhausted = True
                elif self.config.vbr_excess_discipline == "priority":
                    offset = VBR_EXCESS_OFFSET + vc.static_priority * 1e6
                else:
                    offset = VBR_EXCESS_OFFSET
        self._exhausted.assign(vc.index, exhausted)
        vc.round_offset = offset

    def _round_gate(self, vc: VirtualChannel) -> Optional[float]:
        """Priority offset for the VC's current round tier, or None when
        the VC has exhausted its round budget.

        Evaluated from scratch and never on the scheduling path: it is
        what :meth:`Router.check_invariants` (and the reference walk in
        ``tests/reference_scheduler.py``) hold the state cached by
        :meth:`refresh_round_state` against."""
        if not self.config.enforce_round_budgets:
            return 0.0
        if vc.service_class is ServiceClass.CBR:
            if vc.allocated_cycles and vc.serviced_this_round >= vc.allocated_cycles:
                return None
            return 0.0
        if vc.service_class is ServiceClass.VBR:
            if vc.serviced_this_round < vc.permanent_cycles:
                return 0.0
            if vc.peak_cycles and vc.serviced_this_round >= vc.peak_cycles:
                return None
            if self.config.vbr_excess_discipline == "priority":
                # The paper's discipline: the connection's stored VBR
                # priority dominates, so one connection's excess is fully
                # drained before the next one is served.
                return VBR_EXCESS_OFFSET + vc.static_priority * 1e6
            # 'shared': excess flits keep competing under the normal
            # (aging) priority, interleaving service across connections.
            return VBR_EXCESS_OFFSET
        # Control and best-effort traffic carry no round budget; the class
        # offsets in the priority scheme place them.
        return 0.0

    # ----- candidate selection -----------------------------------------------

    def fused_mask(self) -> int:
        """The scan's eligibility mask as a raw integer:
        ``flits & credits & routed & ~exhausted``."""
        return (
            self._flits_available._bits
            & self._credits_available._bits
            & self._routed._bits
            & ~self._exhausted._bits
        )

    def candidates(self, now: int, limit: Optional[int] = None) -> List[Candidate]:
        """The offer list handed to the switch scheduler this cycle,
        ascending (see the module docstring for the tuple shape).

        One fused bit-parallel scan: the wide AND of the status vectors
        (§4.1) names the eligible VCs, and only those are visited.  An
        explicit ``limit`` overrides the configured candidate count and
        must be positive.
        """
        if limit is None:
            limit = self._candidate_limit
        elif limit <= 0:
            raise ValueError(f"candidate limit must be positive, got {limit}")
        mask = (
            self._flits_available._bits
            & self._credits_available._bits
            & self._routed._bits
            & ~self._exhausted._bits
        )
        if not mask:
            return []
        vcs = self.vcs
        port = self.port
        scheme = self.scheme
        dep = self._scheme_dep
        selection = self.selection
        per_output = selection == "per_output"
        # ``per_output`` folds its selection into the walk, keeping only
        # the best offer per requested output; the other modes collect
        # the whole pool in ascending VC order and draw from it below.
        best = {}
        pool: List[Candidate] = []
        count = 0
        while mask:
            low = mask & -mask
            mask ^= low
            vc_index = low.bit_length() - 1
            vc = vcs[vc_index]
            buffer = vc.buffer
            if not buffer:
                raise RuntimeError(
                    f"status vector out of sync: vc {self.port}.{vc_index} "
                    "flagged available but empty"
                )
            flit = buffer[0]
            # Priority-term cache: valid while the same flit heads the VC
            # *under the same connection* (bind, release and route changes
            # reset prio_flit/prio_conn to None; the connection-id leg
            # catches contract mutations that keep the head flit parked).
            if vc.prio_flit is not flit or vc.prio_conn != vc.connection_id:
                vc.prio_base, vc.prio_div, vc.prio_key = scheme.cache_terms(
                    vc, flit
                )
                vc.prio_flit = flit
                vc.prio_conn = vc.connection_id
            if dep == 1:
                priority = vc.prio_base + (now - flit.created) / vc.prio_div
            elif dep == 0:
                priority = vc.prio_base
            elif dep == 2:
                priority = vc.prio_base + (
                    (vc.prio_key * 31 + now) * 2654435761 & 0xFFFFFFFF
                ) / 2**32
            else:
                priority = scheme.priority(vc, flit, now)
            rank = -(priority + vc.round_offset)
            output_port = vc.output_port
            count += 1
            if not per_output:
                pool.append((rank, port, vc_index, output_port))
            elif output_port not in best or rank < best[output_port][0]:
                # Strict ``<`` in an ascending walk: on equal rank the
                # lowest VC index, met first, keeps the output.
                best[output_port] = (rank, port, vc_index, output_port)
        self.eligible_vcs_total += count
        if count == 1 and selection != "rotating":
            # One eligible VC — most scans of a loaded network: nothing
            # to order, and only ``rotating`` keeps state to advance.
            offers = [(rank, port, vc_index, output_port)]
        elif per_output:
            offers = sorted(best.values())
            del offers[limit:]
        elif selection == "priority":
            offers = (
                heapq.nsmallest(limit, pool) if len(pool) > limit else sorted(pool)
            )
        elif selection == "random":
            offers = self.rng.sample(pool, limit) if len(pool) > limit else pool
            offers.sort()
        else:
            offers = self._rotating_select(pool, limit)
        self.candidates_offered += len(offers)
        self.cycles_with_candidates += 1
        return offers

    def _rotating_select(self, pool: List[Candidate], limit: int) -> List[Candidate]:
        """Round-robin scan from the rotating pointer, then offer order.

        The scan decides *which* VCs become candidates (fairly); the
        returned list is sorted like every offer list because downstream
        consumers (the perfect switch, greedy arbitration) treat earlier
        entries as preferred.

        The pointer advances on *every* scan, including when the whole
        pool fits within ``limit`` — a hardware rotating encoder steps
        regardless of how many requests it saw.  (It previously advanced
        only on oversubscribed scans, so after a quiet spell the scan
        resumed from a stale pointer and re-favoured the same low-index
        VCs.)
        """
        # Pool is built in ascending vc_index order; rotate it so the
        # scan starts at the pointer, then take the first ``limit``.
        start = 0
        for i, offer in enumerate(pool):
            if offer[2] >= self._scan_pointer:
                start = i
                break
        chosen = (pool[start:] + pool[:start])[:limit]
        self._scan_pointer = (chosen[-1][2] + 1) % self.config.vcs_per_port
        chosen.sort()
        return chosen
