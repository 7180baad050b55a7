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
"""

from __future__ import annotations

import heapq
from typing import Callable, List, NamedTuple, Optional, Sequence

from ..sim.rng import SeededRng
from .columnar import ColumnarState
from .config import RouterConfig
from .priority import PriorityScheme
from .status_vectors import StatusBank
from .virtual_channel import ServiceClass, VirtualChannel

# Priority offset pushing VBR excess-bandwidth service below every
# in-contract data stream but far above best-effort traffic (whose class
# offset is -1e12).  Canonically defined next to the columnar mirror that
# precomputes it per VC; re-exported here for its historical importers.
from .columnar import VBR_EXCESS_OFFSET  # noqa: E402  (re-export)


def _winner_sort_key(winner):
    """Per-output winner order: same as ``Candidate.sort_key`` restricted
    to one input port — descending priority, then lowest VC index."""
    return (-winner[0], winner[1])


class Candidate(NamedTuple):
    """One virtual channel offered to the switch scheduler this cycle."""

    priority: float
    input_port: int
    vc_index: int
    output_port: int

    def sort_key(self):
        """Descending priority, then lowest VC index (deterministic)."""
        return (-self.priority, self.input_port, self.vc_index)


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
        fast_path: bool = True,
        columnar: bool = False,
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
        #: Fused bit-parallel candidate walk (the default).  The reference
        #: per-VC walk is kept behind ``fast_path=False`` so perf_gate can
        #: prove the two produce bit-identical streams.
        self.fast_path = fast_path
        self.candidates_offered = 0
        self.cycles_with_candidates = 0
        # Size of the eligible set before candidate-set truncation, summed
        # per scan (sampled by the flight recorder).  Fast path counts set
        # bits in the fused mask; reference counts the pool it built —
        # provably equal while the vectors are in sync.
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
        # (see PriorityScheme.time_dependence); keeps the fast-path inner
        # loop to an int compare instead of a string compare.
        self._scheme_dep = {"static": 0, "aging": 1, "hashed": 2}.get(
            scheme.time_dependence, 3
        )
        # The per-output mode folds its selection into the fused scan
        # (tracking the best flit per output while walking the mask)
        # instead of building the full pool and reducing it afterwards.
        self._per_output_fast = selection == "per_output"
        # One eligible VC needs no ordering under these two selections
        # (``rotating`` must still advance its pointer, ``random`` is
        # kept on the general path with it).
        self._lone_vc_fast = selection in ("per_output", "priority")
        # Columnar (structure-of-arrays) engine: the per-VC hot state is
        # mirrored into NumPy columns and the candidate scan and round
        # fold run vectorized (see columnar.py / DESIGN.md §7e).  The
        # object graph stays authoritative, so the flag can be flipped
        # mid-run.  ``_terms_dirty`` is the lazy-resync bitmask of VCs
        # whose head flit or binding changed since their row was synced;
        # it is maintained unconditionally (a single int OR) so enabling
        # columnar mid-run needs no scan.
        self._columnar_enabled = columnar
        self._columnar: Optional[ColumnarState] = None
        self._terms_dirty = 0
        # Network-arena pooling: when adopted into a ColumnarPool the
        # bank's columns become slice views of the network-global
        # chunks (same values, shared storage).  None = standalone.
        self._columnar_pool = None
        self._columnar_pool_key = None
        if columnar:
            # Eager build: fail fast with the typed error when NumPy is
            # missing instead of at the first busy cycle.
            self._ensure_columnar()

    # ----- columnar mirror ---------------------------------------------------

    def _ensure_columnar(self) -> ColumnarState:
        """Build (or return) the columnar bank, synced from the objects.

        Also the post-restore rebuild path: checkpoints never contain the
        arrays (see ``__getstate__``), so the first use after a restore
        lands here and reconstructs every column from the authoritative
        object graph, with all priority-term rows marked dirty.
        """
        cols = self._columnar
        if cols is None:
            cols = ColumnarState(
                self.config.vcs_per_port,
                self.config.vbr_excess_discipline == "priority",
                num_outputs=self.config.num_ports,
                pool=self._columnar_pool,
                pool_key=self._columnar_pool_key,
            )
            for vc in self.vcs:
                cols.sync_cold(vc)
            self._terms_dirty = (1 << self.config.vcs_per_port) - 1
            self._columnar = cols
        return cols

    def set_columnar(self, enabled: bool) -> None:
        """Enable/disable the columnar engine mid-run.

        Both directions are free: the object graph is always current, so
        enabling just (re)builds the mirror and disabling drops it.
        """
        self._columnar_enabled = enabled
        if enabled:
            self._ensure_columnar()
        else:
            self._columnar = None

    def adopt_columnar_pool(self, pool, key) -> None:
        """Re-home this scheduler's bank into a :class:`ColumnarPool`.

        Installed by the network arena (key = (router id, input port)).
        Adoption is permanent and value-preserving: an existing bank is
        rebuilt from the authoritative object graph into pool views, and
        every later (re)build — including post-restore — lands on the
        same pool rows.
        """
        self._columnar_pool = pool
        self._columnar_pool_key = key
        if self._columnar is not None:
            self._columnar = None
            self._ensure_columnar()

    def invalidate_vc(self, vc: VirtualChannel) -> None:
        """Drop the VC's cached priority terms and resync its columns.

        The cache is keyed on (head-flit identity, connection id); this
        resets both components so a torn-down-and-readmitted connection
        on the same VC — or a renegotiated contract under the same head
        flit — never inherits stale terms.  Call after any mutation of a
        priority input (binding, route, interarrival, static priority,
        service contract).
        """
        vc.prio_flit = None
        vc.prio_conn = None
        self._terms_dirty |= 1 << vc.index
        if self._columnar is not None:
            self._columnar.sync_cold(vc)

    def __getstate__(self):
        """Pickle without the NumPy bank (rebuilt lazily from objects).

        Keeps checkpoints written under ``columnar_state=True`` loadable
        on hosts without NumPy and guarantees restore re-derives every
        column from the canonical object graph.
        """
        state = self.__dict__.copy()
        state["_columnar"] = None
        return state

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
        if self._columnar_enabled and bits:
            # Vectorized fold: with serviced counters about to reset, no
            # touched VC stays exhausted and the only surviving offset is
            # the precomputed excess tier — computed for all touched rows
            # at once, then mirrored back into the objects (which remain
            # authoritative for invariants, telemetry and flag flips).
            cols = self._ensure_columnar()
            idx = cols.indices_of(bits)
            offsets = cols.fold_round(idx, self._enforce)
            for vc_index, offset in zip(idx.tolist(), offsets.tolist()):
                vc = vcs[vc_index]
                vc.serviced_this_round = 0
                vc.round_offset = offset
            self._exhausted._bits &= ~bits
            self._cbr_serviced.clear_all()
            self._vbr_serviced.clear_all()
            return
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
        or renegotiation — so the fast path never evaluates the gate.
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
        cols = self._columnar
        if cols is not None:
            cols.round_offset[vc.index] = offset

    # ----- candidate selection -----------------------------------------------

    def _round_gate(self, vc: VirtualChannel) -> Optional[float]:
        """Priority offset for the VC's current round tier, or None when
        the VC has exhausted its round budget."""
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

    def eligible_vcs(self) -> List[int]:
        """Indices of VCs passing the bit-vector schedulability test."""
        return list(self.status.eligible_for_service().indices())

    def fused_mask(self) -> int:
        """The fast path's eligibility mask as a raw integer:
        ``flits & credits & routed & ~exhausted``."""
        return (
            self._flits_available._bits
            & self._credits_available._bits
            & self._routed._bits
            & ~self._exhausted._bits
        )

    def candidates(self, now: int, limit: Optional[int] = None) -> List[Candidate]:
        """The candidate set offered to the switch scheduler this cycle."""
        if self._columnar_enabled:
            return self._candidates_columnar(now, limit)
        if not self.fast_path:
            return self._candidates_reference(now, limit)
        return self._candidates_fused(now, limit)

    def _candidates_fused(
        self, now: int, limit: Optional[int] = None
    ) -> List[Candidate]:
        """The fused bit-parallel scalar scan (the object-graph fast path)."""
        if limit is None:
            limit = self._candidate_limit
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
        if not mask & (mask - 1) and self._lone_vc_fast and limit > 0:
            # A single set bit — most scans of a loaded network: the
            # same cache check, float order and counters as the general
            # walks below, without the pool, the sort and the dict.
            vc_index = mask.bit_length() - 1
            vc = vcs[vc_index]
            buffer = vc.buffer
            if not buffer:
                raise RuntimeError(
                    f"status vector out of sync: vc {self.port}.{vc_index} "
                    "flagged available but empty"
                )
            flit = buffer[0]
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
            self.eligible_vcs_total += 1
            self.candidates_offered += 1
            self.cycles_with_candidates += 1
            return [
                Candidate(priority + vc.round_offset, port, vc_index, vc.output_port)
            ]
        if self._per_output_fast:
            # Selection fused into the scan: keep only the best flit per
            # requested output while walking the mask.  An ascending-index
            # scan with strict ``>`` replacement reproduces the reference
            # ordering exactly (``sort_key`` ties on equal priority keep
            # the lowest VC index, i.e. the first one encountered).
            best: dict = {}
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
                priority += vc.round_offset
                count += 1
                output_port = vc.output_port
                incumbent = best.get(output_port)
                if incumbent is None or priority > incumbent[0]:
                    best[output_port] = (priority, vc_index, output_port)
            self.eligible_vcs_total += count
            winners = sorted(best.values(), key=_winner_sort_key)
            if len(winners) > limit:
                winners = winners[:limit]
            chosen = [
                Candidate(priority, port, vc_index, output_port)
                for priority, vc_index, output_port in winners
            ]
            self.candidates_offered += len(chosen)
            self.cycles_with_candidates += 1
            return chosen
        pool: List[Candidate] = []
        append = pool.append
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
            if dep == 0:
                priority = vc.prio_base
            elif dep == 1:
                priority = vc.prio_base + (now - flit.created) / vc.prio_div
            elif dep == 2:
                priority = vc.prio_base + (
                    (vc.prio_key * 31 + now) * 2654435761 & 0xFFFFFFFF
                ) / 2**32
            else:
                priority = scheme.priority(vc, flit, now)
            append(
                Candidate(
                    priority + vc.round_offset, port, vc_index, vc.output_port
                )
            )
        return self._select(pool, limit)

    def _candidates_columnar(
        self, now: int, limit: Optional[int] = None
    ) -> List[Candidate]:
        """Vectorized candidate scan over the columnar state bank.

        Bit-identical to the fused scalar scan: same eligibility mask,
        same float evaluation order for the priorities, same deterministic
        tie-breaking (lowest VC index on equal priority), same counter
        updates.  Per-cycle schemes (``time_dependence == 'percycle'``)
        have no cacheable term structure, so they fall back to the scalar
        walk; the rotating and random selections reuse ``_select`` on a
        pool built from the arrays so the scan pointer and RNG draw
        stream advance exactly as in the scalar path.
        """
        if self._scheme_dep == 3:
            return (
                self._candidates_fused(now, limit)
                if self.fast_path
                else self._candidates_reference(now, limit)
            )
        if limit is None:
            limit = self._candidate_limit
        mask = (
            self._flits_available._bits
            & self._credits_available._bits
            & self._routed._bits
            & ~self._exhausted._bits
        )
        if not mask:
            return []
        cols = self._ensure_columnar()
        dirty = self._terms_dirty & mask
        if dirty:
            self._sync_terms(cols, dirty)
            self._terms_dirty &= ~dirty
        port = self.port
        if self._per_output_fast:
            # Selection runs on the output-group table: one row-wise
            # argmin/argmax finds every output's winner without sorting
            # the eligible set.  Static schemes with budgets unenforced
            # compare precomputed sortable keys (priorities cannot change
            # between term syncs); time-varying schemes evaluate the
            # whole priority column — three vector ops beat per-row
            # gathers once a meaningful slice of the bank is eligible.
            self.eligible_vcs_total += mask.bit_count()
            if self._scheme_dep == 0 and not self._enforce:
                order = cols.select_static_per_output(mask, limit)
                chosen = [
                    Candidate(priority, port, vc_index, output_port)
                    for priority, vc_index, output_port in zip(
                        cols.prio_base[order].tolist(),
                        order.tolist(),
                        cols.output_port[order].tolist(),
                    )
                ]
            else:
                full = cols.priorities_full(
                    now, self._scheme_dep, with_offset=self._enforce
                )
                rows, prs, present = cols.select_dynamic_per_output(full, mask)
                # An output's winner row already identifies its port (the
                # table row index *is* the output), so ordering and limit
                # truncation run on a plain list of at most num_ports
                # tuples — same key as the fused scan's winner sort.
                winners = [
                    (pr, row, out)
                    for out, (pr, row, ok) in enumerate(
                        zip(prs.tolist(), rows.tolist(), present.tolist())
                    )
                    if ok
                ]
                winners.sort(key=_winner_sort_key)
                if len(winners) > limit:
                    winners = winners[:limit]
                chosen = [
                    Candidate(pr, port, row, out) for pr, row, out in winners
                ]
            self.candidates_offered += len(chosen)
            self.cycles_with_candidates += 1
            return chosen
        if self._scheme_dep == 0 and not self._enforce:
            if self.selection == "priority":
                n = mask.bit_count()
                order = cols.select_static_priority(mask, n, limit)
                self.eligible_vcs_total += n
                chosen = [
                    Candidate(priority, port, vc_index, output_port)
                    for priority, vc_index, output_port in zip(
                        cols.prio_base[order].tolist(),
                        order.tolist(),
                        cols.output_port[order].tolist(),
                    )
                ]
                self.candidates_offered += len(chosen)
                self.cycles_with_candidates += 1
                return chosen
        idx = cols.indices_of(mask)
        priorities = cols.priorities(
            idx, now, self._scheme_dep, with_offset=self._enforce
        )
        out = cols.output_port[idx]
        if self.selection == "priority":
            self.eligible_vcs_total += idx.size
            order = cols.select_priority(idx, priorities, limit)
            chosen = [
                Candidate(priority, port, vc_index, output_port)
                for priority, vc_index, output_port in zip(
                    priorities[order].tolist(),
                    idx[order].tolist(),
                    out[order].tolist(),
                )
            ]
            self.candidates_offered += len(chosen)
            self.cycles_with_candidates += 1
            return chosen
        # Rotating / random: the selection itself is stateful (scan
        # pointer, RNG stream), so materialize the ascending-index pool
        # and reuse the scalar selector verbatim.
        pool = [
            Candidate(priority, port, vc_index, output_port)
            for priority, vc_index, output_port in zip(
                priorities.tolist(), idx.tolist(), out.tolist()
            )
        ]
        return self._select(pool, limit)

    def _sync_terms(self, cols: ColumnarState, bits: int) -> None:
        """Replay ``cache_terms`` for the dirty rows in ``bits``.

        Amortized exactly like the scalar cache: one scheme call per head
        flit change, not per cycle.  Updates the object-side cache too so
        the scalar and columnar engines stay interchangeable mid-run.
        """
        vcs = self.vcs
        scheme = self.scheme
        while bits:
            low = bits & -bits
            bits ^= low
            vc_index = low.bit_length() - 1
            vc = vcs[vc_index]
            buffer = vc.buffer
            if not buffer:
                raise RuntimeError(
                    f"status vector out of sync: vc {self.port}.{vc_index} "
                    "flagged available but empty"
                )
            flit = buffer[0]
            base, div, key = scheme.cache_terms(vc, flit)
            vc.prio_base, vc.prio_div, vc.prio_key = base, div, key
            vc.prio_flit = flit
            vc.prio_conn = vc.connection_id
            cols.set_terms(vc_index, base, div, key, flit.created)

    def _candidates_reference(
        self, now: int, limit: Optional[int] = None
    ) -> List[Candidate]:
        """The original per-VC candidate walk, kept as the identity oracle
        for the fused fast path (cf. the legacy kernel behind PR 1's
        ``allow_fast_forward=False``)."""
        if limit is None:
            limit = self._candidate_limit
        pool: List[Candidate] = []
        for vc_index in self._flits_available.indices():
            vc = self.vcs[vc_index]
            flit = vc.head()
            if flit is None:
                raise RuntimeError(
                    f"status vector out of sync: vc {self.port}.{vc_index} "
                    "flagged available but empty"
                )
            if vc.output_port < 0:
                # Not yet routed (a blocked best-effort packet waiting for
                # a downstream VC, §3.4): not schedulable.
                continue
            if not self.credit_check(vc.output_port, vc.output_vc):
                continue
            offset = self._round_gate(vc)
            if offset is None:
                continue
            priority = self.scheme.priority(vc, flit, now) + offset
            pool.append(Candidate(priority, self.port, vc_index, vc.output_port))
        if not pool:
            return []
        return self._select(pool, limit)

    def _select(self, pool: List[Candidate], limit: int) -> List[Candidate]:
        """Draw the offered candidate set from the eligible ``pool``."""
        self.eligible_vcs_total += len(pool)
        if len(pool) == 1 and self.selection == "priority":
            # Nothing to order or rotate; a one-flit port is the common
            # case at light load.
            chosen = pool
        elif self.selection == "random":
            chosen = (
                self.rng.sample(pool, limit) if len(pool) > limit else list(pool)
            )
            chosen.sort(key=Candidate.sort_key)
        elif self.selection == "rotating":
            chosen = self._rotating_select(pool, limit)
        elif self.selection == "per_output":
            chosen = self._per_output_select(pool, limit)
        elif len(pool) > limit:
            chosen = heapq.nsmallest(limit, pool, key=Candidate.sort_key)
        else:
            chosen = sorted(pool, key=Candidate.sort_key)
        self.candidates_offered += len(chosen)
        self.cycles_with_candidates += 1
        return chosen

    def _per_output_select(self, pool: List[Candidate], limit: int) -> List[Candidate]:
        """Best flit per requested output, then the top ``limit`` of those."""
        best_per_output: dict = {}
        for candidate in pool:
            incumbent = best_per_output.get(candidate.output_port)
            if incumbent is None or candidate.sort_key() < incumbent.sort_key():
                best_per_output[candidate.output_port] = candidate
        chosen = sorted(best_per_output.values(), key=Candidate.sort_key)
        return chosen[:limit]

    def _rotating_select(self, pool: List[Candidate], limit: int) -> List[Candidate]:
        """Round-robin scan from the rotating pointer, then priority order.

        The scan decides *which* VCs become candidates (fairly); the
        returned list is priority-sorted because downstream consumers
        (the perfect switch, greedy arbitration) treat earlier entries as
        preferred.

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
        for i, candidate in enumerate(pool):
            if candidate.vc_index >= self._scan_pointer:
                start = i
                break
        rotated = pool[start:] + pool[:start]
        chosen = rotated[:limit]
        self._scan_pointer = (chosen[-1].vc_index + 1) % self.config.vcs_per_port
        chosen.sort(key=Candidate.sort_key)
        return chosen
