"""Constant-bit-rate traffic sources (paper §2, §5).

A CBR connection delivers one flit every fixed inter-arrival period.  The
source models the network interface feeding the router's input link: when
the input virtual channel buffer is full (link-level flow control pushed
back), flits wait in the interface queue and are retried — nothing is
dropped, matching the MMR's lossless design.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..core.config import RouterConfig
from ..core.flit import Flit, FlitType
from ..core.router import Router
from ..sim.engine import Simulator
from ..sim.events import Event


class CbrSource:
    """Generates a deterministic flit stream for one CBR connection."""

    def __init__(
        self,
        sim: Simulator,
        router: Router,
        connection_id: int,
        input_port: int,
        vc_index: int,
        rate_bps: float,
        config: RouterConfig,
        phase: float = 0.0,
        stop_time: Optional[int] = None,
        policer=None,
    ) -> None:
        """``phase`` offsets the first arrival (cycles) so that connections
        admitted together do not all beat in lockstep.  ``policer`` (a
        :class:`~repro.network.policing.TokenBucket`) gates injection when
        set: a flit enters the network only once a token is available, so a
        renegotiated-down session is actually shaped to its new contract
        (§4.2-4.3)."""
        if phase < 0:
            raise ValueError(f"phase must be >= 0, got {phase}")
        self.sim = sim
        self.router = router
        self.connection_id = connection_id
        self.input_port = input_port
        self.vc_index = vc_index
        self.rate_bps = rate_bps
        self.interarrival = config.rate_to_interarrival_cycles(rate_bps)
        self.phase = phase
        self.stop_time = stop_time
        self.sequence = 0
        self.flits_generated = 0
        self.flits_injected = 0
        self._pending: Deque[Flit] = deque()
        self._retry_scheduled = False
        self._next_arrival = phase
        self._arrival: Optional[Event] = None
        self.max_interface_queue = 0
        self.policer = policer
        # A token granted for a flit the router then refused stays "held"
        # for the retry, so back-pressure never burns policer credit.
        self._token_held = False

    def _policer_allows(self) -> bool:
        if self.policer is None or self._token_held:
            return True
        if self.policer.allow(self.sim.now):
            self._token_held = True
            return True
        return False

    def start(self) -> None:
        """Schedule the first arrival, ``phase`` cycles from now.

        The source owns that one event from then on: each arrival re-files
        it one period ahead, so a steady stream allocates no event.
        """
        self._next_arrival = self.sim.now + self.phase
        self._arrival = self.sim.schedule_at(
            int(self._next_arrival), self._on_arrival
        )

    # ----- event handlers --------------------------------------------------

    def _on_arrival(self) -> None:
        now = self.sim.now
        if self.stop_time is not None and now >= self.stop_time:
            # Not re-filed: drop the event, and with it the reference cycle
            # source -> event -> bound method -> source.
            self._arrival = None
            return
        flit = Flit(
            FlitType.DATA,
            connection_id=self.connection_id,
            created=now,
            sequence=self.sequence,
        )
        self.sequence += 1
        self.flits_generated += 1
        pending = self._pending
        if not pending:
            # Common case: no backlog, so try the VC directly and skip the
            # interface queue round-trip.  The flit still "occupies" the
            # queue for the attempt, so the high-water mark is at least 1.
            if (self.policer is None or self._policer_allows()) and self.router.inject(
                self.input_port, self.vc_index, flit
            ):
                self._token_held = False
                self.flits_injected += 1
                if self.max_interface_queue < 1:
                    self.max_interface_queue = 1
            else:
                pending.append(flit)
                if self.max_interface_queue < 1:
                    self.max_interface_queue = 1
                self._schedule_retry()
        else:
            pending.append(flit)
            if len(pending) > self.max_interface_queue:
                self.max_interface_queue = len(pending)
            self._drain()
        self._next_arrival += self.interarrival
        # Straight to the event queue: the next arrival is never in the
        # past, so schedule_at's guards can never fire, and this runs once
        # per generated flit.
        self.sim.events.refile(self._arrival, int(self._next_arrival))

    def _drain(self) -> None:
        """Push pending flits into the input VC until it refuses one."""
        while self._pending:
            if not self._policer_allows():
                self._schedule_retry()
                return
            if not self.router.inject(self.input_port, self.vc_index, self._pending[0]):
                self._schedule_retry()
                return
            self._token_held = False
            self._pending.popleft()
            self.flits_injected += 1

    def _schedule_retry(self) -> None:
        if not self._retry_scheduled:
            self._retry_scheduled = True
            self.sim.schedule(1, self._retry)

    def _retry(self) -> None:
        self._retry_scheduled = False
        self._drain()
        if self._pending:
            self._schedule_retry()

    @property
    def backlog(self) -> int:
        """Flits held at the interface by back-pressure right now."""
        return len(self._pending)
