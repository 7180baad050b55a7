"""Network interfaces: where hosts meet the MMR fabric (paper §4.2-4.3).

The interface owns everything the paper pushes out of the router to keep
the chip small: injection policing, connection bookkeeping, dynamic
bandwidth/priority renegotiation, frame aborts, and end-to-end statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from ..core.bandwidth import BandwidthRequest
from ..core.flit import Flit, FlitType
from ..core.virtual_channel import ServiceClass
from ..sim.rng import SeededRng
from ..sim.stats import ConnectionStats
from ..traffic.cbr import CbrSource
from ..traffic.vbr import MpegProfile, VbrSource
from .connection import ConnectionManager, NetworkConnection
from .network import Network
from .policing import TokenBucket


@dataclass
class OpenStream:
    """A connection this interface sources, with its traffic generator."""

    connection: NetworkConnection
    source: object  # CbrSource or VbrSource
    policer: Optional[TokenBucket] = None


class NetworkInterface:
    """One host port's interface: injection, policing, delivery stats."""

    def __init__(
        self,
        network: Network,
        manager: ConnectionManager,
        node: int,
        host_port: Optional[int] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        self.network = network
        self.manager = manager
        self.node = node
        self.host_port = (
            host_port if host_port is not None else network.topology.host_port(node)
        )
        self.rng = rng if rng is not None else SeededRng(0, f"ni{node}")
        network.set_host_delivery(node, self.host_port, self._on_delivery)
        #: End-to-end latency/jitter per connection delivered *to* this host.
        self.end_to_end: Dict[int, ConnectionStats] = {}
        self.flits_received = 0
        self.packets_received = 0
        self.streams: Dict[int, OpenStream] = {}
        # Best-effort injection with retry-on-blocked.
        self._be_pending: Deque[Tuple[Flit, int]] = deque()
        self._be_retry_scheduled = False
        self.be_sent = 0
        self._be_ids = 0

    # ----- delivery side --------------------------------------------------------

    def _on_delivery(self, node: int, port: int, flit: Flit) -> None:
        latency = self.network.sim.now - flit.created
        stats = self.end_to_end.get(flit.connection_id)
        if stats is None:
            stats = self.end_to_end[flit.connection_id] = ConnectionStats()
        stats.record_flit(latency)
        self.flits_received += 1
        if flit.flit_type is FlitType.BEST_EFFORT:
            self.packets_received += 1

    # ----- connection-oriented streams ---------------------------------------------

    def open_cbr(
        self,
        destination: int,
        rate_bps: float,
        static_priority: float = 0.0,
        police: bool = True,
        stop_time: Optional[int] = None,
    ) -> Optional[OpenStream]:
        """Establish a CBR connection and start its source.

        Returns None when establishment fails (no admissible minimal
        path).  Injection begins once the probe/ack setup completes.
        """
        config = self.network.config
        request = BandwidthRequest(config.rate_to_cycles_per_round(rate_bps))
        interarrival = config.rate_to_interarrival_cycles(rate_bps)
        connection = self.manager.establish(
            self.node,
            destination,
            request,
            service_class=ServiceClass.CBR,
            interarrival_cycles=interarrival,
            static_priority=static_priority,
        )
        if connection is None:
            return None
        source = CbrSource(
            self.network.sim,
            self.network.routers[self.node],
            connection.connection_id,
            connection.source_entry_port,
            connection.source_vc,
            rate_bps,
            config,
            phase=connection.ready_at
            - self.network.sim.now
            + self.rng.uniform(0.0, interarrival),
            stop_time=stop_time,
        )
        source.start()
        policer = None
        if police:
            policer = TokenBucket(1.0 / interarrival, burst=2.0)
        stream = OpenStream(connection, source, policer)
        self.streams[connection.connection_id] = stream
        return stream

    def open_vbr(
        self,
        destination: int,
        profile: MpegProfile,
        static_priority: float = 0.0,
        peak_quantile_sigma: float = 2.0,
        stop_time: Optional[int] = None,
    ) -> Optional[OpenStream]:
        """Establish a VBR connection (permanent = mean, peak estimated
        from the profile) and start its MPEG source."""
        config = self.network.config
        permanent = config.rate_to_cycles_per_round(profile.mean_rate_bps)
        peak = config.rate_to_cycles_per_round(
            profile.peak_rate_bps(peak_quantile_sigma)
        )
        request = BandwidthRequest(permanent, max(peak, permanent))
        interarrival = config.rate_to_interarrival_cycles(profile.mean_rate_bps)
        connection = self.manager.establish(
            self.node,
            destination,
            request,
            service_class=ServiceClass.VBR,
            interarrival_cycles=interarrival,
            static_priority=static_priority,
        )
        if connection is None:
            return None
        source = VbrSource(
            self.network.sim,
            self.network.routers[self.node],
            connection.connection_id,
            connection.source_entry_port,
            connection.source_vc,
            profile,
            config,
            self.rng.spawn(f"vbr{connection.connection_id}"),
            phase=connection.ready_at - self.network.sim.now,
            stop_time=stop_time,
        )
        source.start()
        stream = OpenStream(connection, source)
        self.streams[connection.connection_id] = stream
        return stream

    def close(self, stream: OpenStream) -> None:
        """Tear the stream's connection down (its buffers must be empty)."""
        self.manager.teardown(stream.connection)
        self.streams.pop(stream.connection.connection_id, None)

    # ----- dynamic management (§4.3) -------------------------------------------------

    def renegotiate_bandwidth(self, stream: OpenStream, new_rate_bps: float) -> bool:
        """Send a SET_BANDWIDTH control word along the connection."""
        config = self.network.config
        new_request = BandwidthRequest(config.rate_to_cycles_per_round(new_rate_bps))
        if not self.manager.renegotiate(stream.connection, new_request):
            return False
        interarrival = config.rate_to_interarrival_cycles(new_rate_bps)
        stream.connection.interarrival_cycles = interarrival
        source = stream.source
        if isinstance(source, CbrSource):
            source.interarrival = interarrival
            source.rate_bps = new_rate_bps
        if stream.policer is not None:
            stream.policer.set_rate(1.0 / interarrival, now=self.network.sim.now)
        # Update the per-hop VC state the biased priority consults, and
        # drop the cached priority terms: a head flit parked on the VC
        # would otherwise keep competing under the old rate's bias until
        # it drains.
        for i, node in enumerate(stream.connection.path):
            router = self.network.routers[node]
            entry_port = stream.connection.entry_ports[i]
            vc_index = stream.connection.vcs[i]
            router.input_ports[entry_port].vcs[
                vc_index
            ].interarrival_cycles = interarrival
            router.invalidate_priority_cache(entry_port, vc_index)
        return True

    def set_priority(self, stream: OpenStream, priority: float) -> None:
        """Send a SET_PRIORITY control word along the connection."""
        self.manager.set_priority(stream.connection, priority)

    # ----- best-effort ------------------------------------------------------------------

    def send_best_effort(self, destination: int) -> None:
        """Queue one best-effort packet toward ``destination``'s host."""
        self._be_ids += 1
        flit = Flit(
            FlitType.BEST_EFFORT,
            # Distinct id space per interface so receive stats separate.
            connection_id=-(self.node * 1000000 + self._be_ids),
            created=self.network.sim.now,
            is_tail=True,
        )
        self._be_pending.append((flit, destination))
        self._drain_best_effort()

    def _drain_best_effort(self) -> None:
        while self._be_pending:
            flit, destination = self._be_pending[0]
            if not self.network.inject_best_effort(
                self.node, self.host_port, flit, destination
            ):
                self._schedule_be_retry()
                return
            self._be_pending.popleft()
            self.be_sent += 1

    def _schedule_be_retry(self) -> None:
        if not self._be_retry_scheduled:
            self._be_retry_scheduled = True
            self.network.sim.schedule(1, self._be_retry)

    def _be_retry(self) -> None:
        self._be_retry_scheduled = False
        self._drain_best_effort()
