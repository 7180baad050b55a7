"""Tests for the multi-router network: wiring, flow control, best-effort."""

import pytest

from repro.core.bandwidth import BandwidthRequest
from repro.core.config import RouterConfig
from repro.core.flit import Flit, FlitType
from repro.core.priority import BiasedPriority
from repro.core.router import InputPort
from repro.network.connection import ConnectionManager
from repro.network.interface import NetworkInterface
from repro.network.network import Network
from repro.network.topology import irregular, mesh, ring, torus
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng


def build_network(topo=None, vcs=8, link_latency=1, **config_overrides):
    topo = topo or mesh(3, 3)
    defaults = dict(
        num_ports=topo.num_ports,
        vcs_per_port=vcs,
        vc_buffer_flits=4,
        enforce_round_budgets=False,
    )
    defaults.update(config_overrides)
    config = RouterConfig(**defaults)
    sim = Simulator()
    rng = SeededRng(11, "nettest")
    network = Network(
        topo, config, BiasedPriority(), sim, rng, link_latency=link_latency
    )
    manager = ConnectionManager(network)
    return network, manager, sim, rng


class TestWiring:
    def test_router_per_node(self):
        network, _, _, _ = build_network()
        assert len(network.routers) == 9

    def test_config_must_cover_topology_ports(self):
        topo = mesh(3, 3)
        config = RouterConfig(num_ports=2, vcs_per_port=4)
        with pytest.raises(ValueError):
            Network(topo, config, BiasedPriority(), Simulator(), SeededRng(1, "x"))

    def test_link_latency_validated(self):
        with pytest.raises(ValueError):
            build_network(link_latency=0)

    def test_host_delivery_only_on_host_ports(self):
        network, _, _, _ = build_network()
        with pytest.raises(ValueError):
            network.set_host_delivery(4, 0, lambda n, p, f: None)


class TestEndToEnd:
    def test_multi_hop_cbr_delivery(self):
        network, manager, sim, rng = build_network()
        interfaces = [
            NetworkInterface(network, manager, n, rng=rng.spawn(f"ni{n}"))
            for n in range(9)
        ]
        stream = interfaces[0].open_cbr(8, 20e6)
        assert stream is not None
        sim.run(20000)
        stats = interfaces[8].end_to_end[stream.connection.connection_id]
        assert stats.flits > 100
        # Path 0..8 in a 3x3 mesh is 4 hops; uncontended latency is a few
        # cycles and perfectly regular.
        assert stats.delay.mean < 10
        assert stats.jitter.mean == pytest.approx(0.0, abs=0.01)

    def test_flit_conservation(self):
        network, manager, sim, rng = build_network()
        interfaces = [
            NetworkInterface(network, manager, n, rng=rng.spawn(f"ni{n}"))
            for n in range(9)
        ]
        streams = []
        for src, dst, rate in [(0, 8, 55e6), (3, 5, 20e6), (6, 2, 10e6)]:
            stream = interfaces[src].open_cbr(dst, rate)
            assert stream is not None
            streams.append((src, dst, stream))
        sim.run(30000)
        for src, dst, stream in streams:
            generated = stream.source.flits_generated
            received = interfaces[dst].end_to_end[
                stream.connection.connection_id
            ].flits
            in_flight = network.total_buffered() + stream.source.backlog
            assert received <= generated
            assert generated - received <= max(in_flight, 16)

    def test_connections_share_links_without_loss(self):
        network, manager, sim, rng = build_network()
        interfaces = [
            NetworkInterface(network, manager, n, rng=rng.spawn(f"ni{n}"))
            for n in range(9)
        ]
        streams = [
            interfaces[0].open_cbr(8, 120e6),
            interfaces[1].open_cbr(8, 55e6),
        ]
        assert all(s is not None for s in streams)
        sim.run(20000)
        for stream in streams:
            stats = interfaces[8].end_to_end[stream.connection.connection_id]
            assert stats.flits > 50

    def test_link_latency_adds_to_path_delay(self):
        results = {}
        for latency in (1, 4):
            network, manager, sim, rng = build_network(link_latency=latency)
            interfaces = [
                NetworkInterface(network, manager, n, rng=rng.spawn(f"ni{n}"))
                for n in range(9)
            ]
            stream = interfaces[0].open_cbr(8, 20e6)
            sim.run(20000)
            stats = interfaces[8].end_to_end[stream.connection.connection_id]
            results[latency] = stats.delay.mean
        assert results[4] > results[1]


class TestBestEffort:
    def test_delivery_on_mesh(self):
        network, manager, sim, rng = build_network()
        interfaces = [
            NetworkInterface(network, manager, n, rng=rng.spawn(f"ni{n}"))
            for n in range(9)
        ]
        for _ in range(10):
            interfaces[0].send_best_effort(8)
        sim.run(2000)
        assert interfaces[8].packets_received == 10
        assert interfaces[0].be_sent == 10

    def test_delivery_on_irregular(self):
        topo = irregular(8, SeededRng(21, "irr"), mean_degree=3.0)
        network, manager, sim, rng = build_network(topo=topo)
        interfaces = [
            NetworkInterface(network, manager, n, rng=rng.spawn(f"ni{n}"))
            for n in range(8)
        ]
        pairs = [(0, 7), (3, 1), (5, 2), (6, 4)]
        for src, dst in pairs:
            for _ in range(5):
                interfaces[src].send_best_effort(dst)
        sim.run(5000)
        for src, dst in pairs:
            assert interfaces[dst].packets_received >= 5

    def test_best_effort_yields_to_cbr(self):
        network, manager, sim, rng = build_network()
        interfaces = [
            NetworkInterface(network, manager, n, rng=rng.spawn(f"ni{n}"))
            for n in range(9)
        ]
        stream = interfaces[0].open_cbr(8, 120e6)
        for _ in range(20):
            interfaces[0].send_best_effort(8)
        sim.run(20000)
        cbr_stats = interfaces[8].end_to_end[stream.connection.connection_id]
        assert cbr_stats.flits > 500
        assert interfaces[8].packets_received == 20

    def test_no_vc_leak(self):
        network, manager, sim, rng = build_network()
        interfaces = [
            NetworkInterface(network, manager, n, rng=rng.spawn(f"ni{n}"))
            for n in range(9)
        ]
        for i in range(50):
            interfaces[0].send_best_effort(8)
        sim.run(10000)
        assert interfaces[8].packets_received == 50
        # All packet VCs must have been released everywhere.
        for router in network.routers:
            for port in router.input_ports:
                assert port.free_vc_count() >= 8 - 1  # stream-free network
        assert network.total_buffered() == 0


class TestPortsBuiltAtFirstBinding:
    """A network costs the VCs it binds: a port nobody binds holds none."""

    def test_built_ports_are_the_ports_ever_bound(self, monkeypatch):
        """And within a built port, the built VCs are the VCs ever bound."""
        bound = set()
        bound_vcs = set()
        bind_vc = InputPort.bind_vc

        def recording_bind_vc(port, vc_index, *args):
            bound.add((id(port), port.port))
            bound_vcs.add((id(port), port.port, vc_index))
            return bind_vc(port, vc_index, *args)

        monkeypatch.setattr(InputPort, "bind_vc", recording_bind_vc)
        network, manager, sim, rng = build_network(topo=torus(16, 16))
        interfaces = [
            NetworkInterface(network, manager, n, rng=rng.spawn(f"ni{n}"))
            for n in range(0, 256, 37)
        ]
        streams = [
            interface.open_cbr((interface.node * 5 + 17) % 256, 55e6)
            for interface in interfaces
        ]
        assert sum(stream is not None for stream in streams) >= 5
        interfaces[0].send_best_effort(200)
        # A connection nobody sends on, torn down again: its ports stay
        # built after their last release.
        silent = manager.establish(3, 140, BandwidthRequest(2))
        sim.run(200)
        manager.teardown(silent)
        sim.run(200)
        network.check_invariants()
        built = {
            (id(port), port.port)
            for router in network.routers
            for port in router.input_ports
            if port.vcs
        }
        assert built == bound
        total = sum(len(router.input_ports) for router in network.routers)
        assert 5 <= len(built) < total // 10
        built_vcs = {
            (id(port), port.port, index)
            for router in network.routers
            for port in router.input_ports
            for index, vc in enumerate(port.vcs)
            if vc is not None
        }
        assert built_vcs == bound_vcs
        assert len(built_vcs) < len(built) * network.config.vcs_per_port // 4

    def test_a_flit_sent_into_an_unbuilt_port_breaks_conservation(self):
        network, _, _, _ = build_network()
        port = network.topology.port_of(1, 0)
        assert not network.routers[1].input_ports[port].vcs
        network._lanes[1] = [(1, port, 2, Flit(FlitType.DATA, 7))]
        with pytest.raises(AssertionError, match="port unbuilt"):
            network.check_invariants()


class TestLinkPlane:
    """Flits and credits cross links in the network's lanes: in-flight
    state is inspectable, conserved exactly, and never jumped over."""

    @staticmethod
    def loaded_mesh(link_latency, best_effort=True):
        network, manager, sim, rng = build_network(
            topo=mesh(4, 4), link_latency=link_latency
        )
        interfaces = [
            NetworkInterface(network, manager, n, rng=rng.spawn(f"ni{n}"))
            for n in range(16)
        ]
        rates = (120e6, 55e6, 20e6)
        streams = [
            interfaces[src].open_cbr((src * 7 + 5) % 16, rates[src % 3])
            for src in range(16)
        ]
        streams = [stream for stream in streams if stream is not None]
        assert len(streams) >= 8
        if best_effort:
            for src in range(0, 16, 3):
                for _ in range(4):
                    interfaces[src].send_best_effort(15 - src)
        return network, sim, interfaces, streams

    @pytest.mark.parametrize("link_latency", [1, 3])
    def test_link_conservation_holds_every_cycle(self, link_latency):
        network, sim, _, _ = self.loaded_mesh(link_latency)
        most_flits = most_credits = 0
        for _ in range(400):
            sim.run(1)
            network.check_invariants()
            most_flits = max(most_flits, network.flits_in_flight())
            most_credits = max(most_credits, network.credits_in_flight())
        # Not vacuous: the links really were carrying both.
        assert most_flits >= link_latency
        assert most_credits >= link_latency

    def test_check_invariants_catches_a_lost_credit(self):
        network, sim, _, _ = self.loaded_mesh(2)
        while not network.credits_in_flight():
            sim.run(1)
        lane = next(
            lane
            for lane in network._lanes.values()
            if any(len(record) == 3 for record in lane)
        )
        lane.remove(next(record for record in lane if len(record) == 3))
        with pytest.raises(AssertionError, match="credits returning"):
            network.check_invariants()

    @pytest.mark.parametrize("link_latency", [1, 3])
    def test_flit_conservation_is_exact(self, link_latency):
        network, sim, interfaces, streams = self.loaded_mesh(
            link_latency, best_effort=False
        )
        for _ in range(60):
            sim.run(5)
            offered = sum(s.source.flits_generated for s in streams)
            at_source = sum(s.source.backlog for s in streams)
            delivered = sum(ni.flits_received for ni in interfaces)
            assert offered == (
                delivered
                + at_source
                + network.total_buffered()
                + network.flits_in_flight()
            )
        assert delivered > 0

    def test_fast_forward_never_jumps_an_in_flight_flit(self):
        delivered_at = {}
        for stepwise in (True, False):
            network, _, sim, _ = build_network(topo=mesh(2, 2), link_latency=3)
            delivered = []
            network.set_host_delivery(
                3,
                network.topology.host_port(3),
                lambda node, port, flit, sim=sim, log=delivered: log.append(sim.now),
            )
            flit = Flit(FlitType.BEST_EFFORT, connection_id=900, created=0)
            assert network.inject_best_effort(
                0, network.topology.host_port(0), flit, 3
            )
            if stepwise:
                lane_only = 0
                for _ in range(40):
                    sim.step()
                    if (
                        network.flits_in_flight() == 1
                        and not sim.events
                        and not any(r.activity.active() for r in network.routers)
                    ):
                        # Every router idle, no event pending: the lane is
                        # all that stops the kernel from jumping ahead.
                        lane_only += 1
                assert lane_only >= 2
            else:
                sim.run(40)
                assert sim.fast_forwarded_cycles > 0  # it did jump, afterwards
            assert len(delivered) == 1
            assert network.flits_in_flight() == network.credits_in_flight() == 0
            delivered_at[stepwise] = delivered[0]
        assert delivered_at[True] == delivered_at[False]
