"""Switch scheduling (paper §4.4, §5.1).

The switch scheduler decides, every flit cycle, which input port connects
to which output port.  The MMR is *input-driven*: each link scheduler
offers a candidate set, and output conflicts are resolved by priority.
Three schedulers cover the evaluation:

* :class:`GreedyPriorityScheduler` — the MMR's scheme: all ports scheduled
  concurrently; conflicts arbitrated by (dynamically biased or fixed)
  priority, highest first.
* :class:`DecScheduler` — the Autonet/DEC comparison point [2, 24]:
  candidates chosen and conflicts arbitrated by random selection through
  parallel iterative request/grant/accept rounds (PIM).
* :class:`PerfectSwitchScheduler` — the lower-bound switch with N-times
  internal bandwidth: every input transmits its best candidate, outputs
  never conflict.

Offers and grants are the plain tuples :mod:`.link_scheduler` describes.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.rng import SeededRng
from .link_scheduler import Candidate

#: One scheduled transmission: ``(input_port, vc_index, output_port)``,
#: the offer it grants without its rank.
Grant = Tuple[int, int, int]


class SwitchScheduler(abc.ABC):
    """Turns per-input offer lists into a set of grants."""

    name: str = "abstract"
    #: True when the backing switch can accept several flits per output
    #: per cycle (only the perfect switch).
    output_concurrency: int = 1
    #: Matching accounting, maintained by the router around each
    #: ``schedule`` call (class-level defaults; incremented per instance).
    grants_issued: int = 0
    schedule_calls: int = 0

    @abc.abstractmethod
    def schedule(
        self, offer_lists: Sequence[List[Candidate]], now: int
    ) -> List[Grant]:
        """Compute the grants for this flit cycle.

        ``offer_lists`` holds one list per input port that offers
        anything, in port order, each list non-empty and ascending as
        ``LinkScheduler.candidates`` returns it.  Every returned grant
        must use each input port at most once and respect the output
        concurrency.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class GreedyPriorityScheduler(SwitchScheduler):
    """The MMR input-driven scheme: global priority-ordered matching.

    All offers from all ports are considered together, highest priority
    first; an offer is granted when both its input port and its output
    port are still free.  This models concurrent per-output arbiters with
    priority selection, resolved consistently.
    """

    name = "greedy"

    def schedule(
        self, offer_lists: Sequence[List[Candidate]], now: int
    ) -> List[Grant]:
        if not offer_lists:
            return []
        unmatched = len(offer_lists)
        if unmatched == 1:
            # One input port: the greedy pass grants its first offer and
            # skips the rest (input constraint).  The common case at light
            # load, where a single port has flits buffered in a cycle.
            return [offer_lists[0][0][1:]]
        merged: List[Candidate] = []
        for offers in offer_lists:
            merged += offers
        # Each list is already ascending, so Timsort's run detection makes
        # this close to a k-way merge.
        merged.sort()
        grants: List[Grant] = []
        inputs_used = outputs_used = 0
        for offer in merged:
            input_bit = 1 << offer[1]
            output_bit = 1 << offer[3]
            if inputs_used & input_bit or outputs_used & output_bit:
                continue
            inputs_used |= input_bit
            outputs_used |= output_bit
            grants.append(offer[1:])
            unmatched -= 1
            if not unmatched:
                # Every contributing input holds a grant; the remaining
                # tail cannot add one (input constraint), so stop walking.
                break
        return grants


class DecScheduler(SwitchScheduler):
    """Autonet/DEC-style scheduling: parallel iterative random matching.

    Anderson et al.'s high-speed switch scheduling for the DEC AN2
    (the Autonet successor) performs repeated request/grant/accept rounds
    with uniformly random selections.  Priorities are ignored entirely —
    the scheme optimises matching size, not QoS.
    """

    name = "dec"

    def __init__(self, rng: SeededRng, iterations: int = 4) -> None:
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        self.rng = rng
        self.iterations = iterations

    def schedule(
        self, offer_lists: Sequence[List[Candidate]], now: int
    ) -> List[Grant]:
        # Remaining offer lists per unmatched input, in port order.
        remaining: Dict[int, List[Candidate]] = {
            offers[0][1]: offers for offers in offer_lists
        }
        grants: List[Grant] = []
        outputs_used = set()
        for _ in range(self.iterations):
            if not remaining:
                break
            # Request phase: each input requests every free output it has
            # an offer for.
            requests: Dict[int, List[Candidate]] = {}
            for offers in remaining.values():
                for offer in offers:
                    if offer[3] not in outputs_used:
                        requests.setdefault(offer[3], []).append(offer)
            if not requests:
                break
            # Grant phase: each output grants one random request.
            granted: Dict[int, List[Candidate]] = {}
            for reqs in requests.values():
                choice = self.rng.choice(reqs)
                granted.setdefault(choice[1], []).append(choice)
            # Accept phase: each input accepts one random grant.
            for input_port, offers in granted.items():
                if input_port not in remaining:
                    continue
                accepted = self.rng.choice(offers)
                grants.append(accepted[1:])
                outputs_used.add(accepted[3])
                del remaining[input_port]
        return grants


class PerfectSwitchScheduler(SwitchScheduler):
    """Lower bound: outputs accept any number of flits per cycle.

    Each input simply transmits its first (highest-priority) offer; only
    the one-flit-per-input (link bandwidth) constraint remains.
    """

    name = "perfect"

    def __init__(self, num_ports: int) -> None:
        if num_ports <= 0:
            raise ValueError(f"num_ports must be positive, got {num_ports}")
        self.output_concurrency = num_ports

    def schedule(
        self, offer_lists: Sequence[List[Candidate]], now: int
    ) -> List[Grant]:
        grants: List[Grant] = []
        for offers in offer_lists:
            grants.append(offers[0][1:])
        return grants


def validate_grants(
    grants: Sequence[Grant],
    num_ports: int,
    output_concurrency: int = 1,
    offers: Optional[Sequence[List[Candidate]]] = None,
) -> None:
    """Assert the structural invariants every scheduler must uphold.

    Used by tests and (cheaply) by the router in checked mode: each input
    port appears at most once, each output port at most
    ``output_concurrency`` times, all ports in range.  Given ``offers``
    (the offer lists ``schedule`` was handed), every grant must also be
    one of them without its rank.
    """
    inputs_seen = set()
    outputs_count: Dict[int, int] = {}
    offered = (
        None
        if offers is None
        else {offer[1:] for offer_list in offers for offer in offer_list}
    )
    for grant in grants:
        input_port, _, output_port = grant
        if not 0 <= input_port < num_ports:
            raise ValueError(f"grant input port {input_port} out of range")
        if not 0 <= output_port < num_ports:
            raise ValueError(f"grant output port {output_port} out of range")
        if input_port in inputs_seen:
            raise ValueError(f"input port {input_port} granted twice")
        inputs_seen.add(input_port)
        outputs_count[output_port] = outputs_count.get(output_port, 0) + 1
        if outputs_count[output_port] > output_concurrency:
            raise ValueError(
                f"output port {output_port} over-committed "
                f"({outputs_count[output_port]} > {output_concurrency})"
            )
        if offered is not None and tuple(grant) not in offered:
            raise ValueError(f"grant {tuple(grant)} matches no offer")
