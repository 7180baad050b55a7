"""The rules the per-hop budget rests on (DESIGN.md §7h): where delay
statistics are folded, that every inlined guard still fires with its
type, that ``ready_time`` is restamped at every hop, and that a host
consumer registered after construction is the one that is called."""

import hashlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bandwidth import BandwidthRequest
from repro.core.config import RouterConfig
from repro.core.flit import Flit, FlitType
from repro.core.flow_control import CreditError, LinkFlowControl
from repro.core.priority import BiasedPriority
from repro.core.router import Router
from repro.core.switch_scheduler import GreedyPriorityScheduler, SwitchScheduler
from repro.harness.network_experiment import (
    NetworkExperiment,
    NetworkExperimentSpec,
    attach_delivery_log,
)
from repro.harness.single_router import ExperimentSpec, SingleRouterExperiment
from repro.network.connection import ConnectionManager
from repro.network.interface import NetworkInterface
from repro.network.network import Network
from repro.network.topology import mesh
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng
from repro.sim.stats import Histogram, RunningStats


def build_network(topology, **config):
    defaults = dict(
        num_ports=topology.num_ports,
        vcs_per_port=8,
        vc_buffer_flits=4,
        enforce_round_budgets=False,
    )
    defaults.update(config)
    sim = Simulator()
    rng = SeededRng(17, "hop-rules")
    network = Network(topology, RouterConfig(**defaults), BiasedPriority(), sim, rng)
    return network, ConnectionManager(network), sim, rng


def data_flit(connection, sim, sequence):
    return Flit(
        FlitType.DATA,
        connection_id=connection.connection_id,
        created=sim.now,
        sequence=sequence,
    )


class TestReadyTimeIsPerHop:
    def test_head_wait_at_the_last_hop_counts_from_that_vc(self):
        """Two flits cross the 3-router line 0-1-2 back to back while a
        stream from node 3 holds router 2's host output, so at router 2
        the second queues behind the first.  It became head at router 0
        too: the stamp it carries from there must not survive."""
        network, manager, sim, _ = build_network(mesh(4, 1))
        line = manager.establish(0, 2, BandwidthRequest(8))
        cross = manager.establish(3, 2, BandwidthRequest(8))
        delivered = []
        network.set_host_delivery(
            2, network.topology.host_port(2), lambda n, p, flit: delivered.append(flit)
        )
        sim.run(max(line.ready_at, cross.ready_at))
        source = network.routers[0]
        competitor = network.routers[3]
        last_vc = network.routers[2].input_ports[line.entry_ports[-1]].vcs[line.vcs[-1]]
        first = data_flit(line, sim, 0)
        second = data_flit(line, sim, 1)
        for flit in (first, second):
            assert source.inject(line.source_entry_port, line.source_vc, flit)
        sequence = 0
        queued_at = None
        for _ in range(40):
            # Older flits win the biased arbitration: keep the host output
            # of router 2 busy until the pair has piled up behind it.
            if queued_at is None and competitor.inject(
                cross.source_entry_port,
                cross.source_vc,
                Flit(FlitType.DATA, cross.connection_id, created=0, sequence=sequence),
            ):
                sequence += 1
            sim.run(1)
            if queued_at is None and last_vc.occupancy == 2:
                assert [last_vc.buffer[0], last_vc.buffer[1]] == [first, second]
                queued_at = sim.now
                stamp_from_upstream = second.ready_time
        assert queued_at is not None, "the pair never queued at the last hop"
        sim.run(40)
        assert first in delivered and second in delivered
        # ``first`` left router 2 at its (final) depart_time; that is the
        # cycle ``second`` became head of the VC.
        assert second.ready_time == first.depart_time > stamp_from_upstream
        assert second.head_wait() == second.depart_time - first.depart_time >= 1


class TestHostDeliveryIsResolvedAtRegistration:
    def test_log_attached_after_build_sees_every_delivery(self):
        experiment = NetworkExperiment(
            NetworkExperimentSpec(
                topology="mesh3x3",
                routing="dimension_order",
                target_link_load=0.4,
                warmup_cycles=0,  # no reset: the interfaces count every flit
                measure_cycles=500,
                seed=4,
            )
        )
        log = attach_delivery_log(experiment)
        experiment.result()
        received = sum(ni.flits_received for ni in experiment.interfaces)
        assert len(log) == received > 0
        assert received == experiment.network.stats.get_counter("host_deliveries")

    def test_registering_again_replaces_the_consumer(self):
        network, _, sim, _ = build_network(mesh(2, 1))
        port = network.topology.host_port(1)
        first, second = [], []
        network.set_host_delivery(1, port, lambda n, p, flit: first.append(flit))
        network.set_host_delivery(1, port, lambda n, p, flit: second.append(flit))
        flit = Flit(FlitType.BEST_EFFORT, connection_id=900, created=0)
        assert network.inject_best_effort(0, network.topology.host_port(0), flit, 1)
        sim.run(20)
        assert (first, second) == ([], [flit])
        # A packet's stats entry is made where it leaves the network.
        assert 900 in network.routers[1].connection_stats
        assert 900 not in network.routers[0].connection_stats


class TestStatisticsRule:
    def test_only_the_destination_router_keeps_connection_stats(self):
        network, manager, sim, rng = build_network(mesh(3, 3))
        interfaces = [
            NetworkInterface(network, manager, n, rng=rng.spawn(f"ni{n}"))
            for n in range(9)
        ]
        stream = interfaces[0].open_cbr(8, 120e6)
        others = [interfaces[2].open_cbr(6, 55e6), interfaces[7].open_cbr(1, 55e6)]
        assert stream is not None and all(others)
        connection = stream.connection
        assert connection.hops >= 4  # routers on the path: >= 3 link hops
        sim.run(3000)
        cid = connection.connection_id
        destination = network.routers[connection.destination]
        end_to_end = interfaces[connection.destination].end_to_end[cid]
        assert destination.connection_stats[cid].flits == end_to_end.flits > 0
        for node in connection.path[:-1]:
            assert cid not in network.routers[node].connection_stats
        for node, router in enumerate(network.routers):
            # One delay sample per flit handed to the host, none in transit.
            assert (
                router.stats.get_series("switch_delay").count
                == router.output_flits[network.topology.host_port(node)]
                == interfaces[node].flits_received
            )
        # No reset_statistics ran: the per-output counters account for
        # every flit the network counted, link ports and host ports apart.
        topology = network.topology
        on_links = on_hosts = 0
        for node, router in enumerate(network.routers):
            for port, flits in enumerate(router.output_flits):
                if topology.neighbor_on_port(node, port) is None:
                    on_hosts += flits
                else:
                    on_links += flits
        assert on_links == network.stats.get_counter("link_flits") > 0
        assert on_hosts == network.stats.get_counter("host_deliveries") > 0
        assert on_hosts == sum(ni.flits_received for ni in interfaces)

    def test_single_router_statistics_are_what_they_were(self):
        """Rows, ``switch_delay`` and the histogram of this run, taken at
        the parent commit (7436230), sample for sample."""
        experiment = SingleRouterExperiment(
            ExperimentSpec(
                target_load=0.7,
                config=RouterConfig(
                    num_ports=4, vcs_per_port=16, enforce_round_budgets=False
                ),
                candidates=4,
                seed=5,
                warmup_cycles=300,
                measure_cycles=1500,
                delay_histogram_bins=4096,
            )
        )
        experiment.result()
        router = experiment.router
        rows = sorted(
            (cid, s.flits, s.delay.mean, s.jitter.mean)
            for cid, s in router.connection_stats.items()
        )
        assert len(rows) == 64
        assert rows[:4] == [
            (0, 0, 0.0, 0.0),
            (1, 24, 1.5, 1.0),
            (2, 24, 1.0, 0.0),
            (3, 66, 1.2727272727272727, 0.1846153846153847),
        ]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "8f142550ae2e690de42c359fa6e32b6c1f8b12d3ca96a105c3cea9ecb1682692"
        )
        series = router.stats.get_series("switch_delay")
        assert (series.count, series.mean, series.maximum) == (
            1922,
            1.3257023933402723,
            4,
        )
        assert router.delay_histogram.nonzero_bins() == [
            (1.0, 1371),
            (2.0, 494),
            (3.0, 39),
            (4.0, 18),
        ]
        assert sum(router.output_flits) == 1922


    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 90), st.sampled_from(["run", "read", "pickle", "reset"])
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(0, 3),
    )
    def test_batched_statistics_match_streaming(self, steps, seed):
        """Runs cut at random cycles — mid-round and across round
        boundaries — with reads, pickle round trips and statistics resets
        between them: every connection's delay and jitter, ``switch_delay``
        and the histogram are bit-identical to folding each delivered flit
        as it left (read off the sink with the flit's own delay)."""
        experiment = SingleRouterExperiment(
            ExperimentSpec(
                target_load=0.7,
                config=RouterConfig(
                    num_ports=4, vcs_per_port=16, enforce_round_budgets=False
                ),
                candidates=4,
                seed=seed,
                delay_histogram_bins=4096,
            )
        )
        sim, router, log = experiment.sim, experiment.router, _DelayLog()
        router.output_handlers = [log] * len(router.output_handlers)
        for cycles, how in steps:
            sim.run(cycles)
            if how == "read":
                [s.jitter for s in router.connection_stats.values()]
                router.stats.get_series("switch_delay")
            elif how == "pickle":
                sim, router, log = pickle.loads(pickle.dumps((sim, router, log)))
                assert _pending(router) == len(router._switch_delays) == 0
            elif how == "reset":
                router.reset_statistics()
                log.rows.clear()
        switch_delay = RunningStats()
        histogram = Histogram(0.0, 4096.0, 4096)
        streams = {}
        for cid, delay in log.rows:
            switch_delay.add(delay)
            histogram.add(delay)
            delays, jitters, last = streams.setdefault(
                cid, (RunningStats(), RunningStats(), [None])
            )
            delays.add(delay)
            if last[0] is not None:
                jitters.add(abs(delay - last[0]))
            last[0] = delay
        for cid, stats in router.connection_stats.items():
            delays, jitters, _ = streams.get(cid, (RunningStats(), RunningStats(), 0))
            assert _state(stats.delay) == _state(delays)
            assert _state(stats.jitter) == _state(jitters)
        assert _state(router.stats.get_series("switch_delay")) == _state(switch_delay)
        assert router.delay_histogram.counts == histogram.counts

    def test_pending_samples_stay_within_one_round(self):
        """The paper's point: folded at every round boundary, so after ten
        rounds nothing waits, and half a round later exactly that half
        round's flits do."""
        experiment = SingleRouterExperiment(
            ExperimentSpec(target_load=0.9, warmup_cycles=0, seed=11)
        )
        router, sim = experiment.router, experiment.sim
        length = router.config.round_length
        sim.run(10 * length)
        assert _pending(router) == 0
        switched = router.stats.get_counter("flits_switched")
        sim.run(length // 2)
        pending = _pending(router)
        assert len(router._switch_delays) == pending
        assert 0 < pending == router.stats.get_counter("flits_switched") - switched
        assert pending <= router.config.num_ports * length

    def test_mid_round_checkpoint_holds_no_pending_sample(self, tmp_path):
        spec = ExperimentSpec(
            target_load=0.8, warmup_cycles=200, measure_cycles=1400, seed=3
        )
        experiment = SingleRouterExperiment(spec)
        experiment.run_to(spec.warmup_cycles + 700)  # mid-round
        assert _pending(experiment.router) > 0
        experiment.checkpoint(tmp_path / "mid.ckpt")
        assert _pending(experiment.router) == len(experiment.router._switch_delays) == 0
        resumed = SingleRouterExperiment.resume(tmp_path / "mid.ckpt", expect_spec=spec)
        assert _pending(resumed.router) == len(resumed.router._switch_delays) == 0
        straight = SingleRouterExperiment(spec).result()
        for run in (experiment.result(), resumed.result()):
            assert (run.summary, run.per_connection, run.per_rate) == (
                straight.summary,
                straight.per_connection,
                straight.per_rate,
            )


class _DelayLog:
    """Sink output handler: (connection, delay) of every flit that left."""

    def __init__(self):
        self.rows = []

    def __call__(self, flit, _output_vc):
        self.rows.append((flit.connection_id, flit.depart_time - flit.created))


def _pending(router):
    """Delay samples a router holds unfolded, over its connections."""
    return sum(len(stats.pending) for stats in router.connection_stats.values())


def _state(stats):
    """Every field of a ``RunningStats`` by ``repr``: bit-identical."""
    return repr(
        (stats.count, stats._total, stats._mean, stats._m2, stats._min, stats._max)
    )


class _GrantEmptyVc(SwitchScheduler):
    """Grants input 0 / VC 0 whether or not anything is buffered there."""

    def schedule(self, candidate_lists, cycle):
        return [(0, 0, 1)]


def single_router(switch_scheduler=None, **kwargs):
    config = RouterConfig(num_ports=4, vcs_per_port=8, vc_buffer_flits=2)
    sim = Simulator()
    router = Router(
        config,
        BiasedPriority(),
        switch_scheduler or GreedyPriorityScheduler(),
        sim,
        **kwargs,
    )
    return router, sim


class TestInlineGuards:
    @pytest.mark.parametrize("vc_index", [-1, 8, 256])
    @pytest.mark.parametrize("operation", ["inject", "consume", "replenish"])
    def test_out_of_range_vc_is_an_index_error(self, operation, vc_index):
        router, _ = single_router(sink_outputs=False)
        call = {
            "inject": lambda: router.inject(0, vc_index, Flit(FlitType.DATA, 1)),
            "consume": lambda: router.output_flow[0].consume(vc_index),
            "replenish": lambda: router.output_flow[0].replenish(vc_index),
        }[operation]
        with pytest.raises(IndexError, match="out of range"):
            call()
        router.check_invariants()  # nothing aliased another VC's bits

    def test_credit_protocol_violations(self):
        flow = LinkFlowControl(num_vcs=4, buffer_depth=2)
        with pytest.raises(CreditError, match="overflow"):
            flow.replenish(1)
        flow.consume(1)
        flow.consume(1)
        assert not flow.has_credit(1) and not flow.credits_available.test(1)
        with pytest.raises(CreditError, match="without credit"):
            flow.consume(1)
        flow.replenish(1)
        assert flow.credits(1) == 1 and flow.credits_available.test(1)

    def test_transmit_from_an_empty_vc(self):
        router, sim = single_router(_GrantEmptyVc())
        assert router.open_connection(1, 0, 1, BandwidthRequest(1)) == 0
        # A flit on another port's bound VC keeps the router ticking.
        assert router.open_connection(2, 1, 2, BandwidthRequest(1)) == 0
        assert router.inject(1, 0, Flit(FlitType.DATA, 2)) is True
        with pytest.raises(RuntimeError, match="VC 0.0 empty"):
            sim.run(1)

    def test_inject_into_a_full_vc_is_refused_and_counted(self):
        router, _ = single_router()
        vc_index = router.open_connection(1, 0, 1, BandwidthRequest(1))
        assert router.inject(0, vc_index, Flit(FlitType.DATA, 1))
        assert router.inject(0, vc_index, Flit(FlitType.DATA, 1))
        full = router.input_ports[0].status.vector("input_buffer_full")
        assert full.test(vc_index)
        full.clear(vc_index)
        assert router.inject(0, vc_index, Flit(FlitType.DATA, 1)) is False
        assert full.test(vc_index)
        assert router.stats.get_counter("inject_blocked") == 1
        assert router.input_ports[0].vcs[vc_index].occupancy == 2

    def test_lane_record_landing_on_a_full_vc(self):
        network, manager, sim, _ = build_network(mesh(2, 1), vc_buffer_flits=2)
        connection = manager.establish(0, 1, BandwidthRequest(1))
        port, vc_index = connection.entry_ports[1], connection.vcs[1]
        for sequence in range(3):
            network._lanes.setdefault(sim.now + 1, []).append(
                (1, port, vc_index, data_flit(connection, sim, sequence))
            )
        with pytest.raises(RuntimeError, match="credited flit refused"):
            sim.run(3)

    def test_checked_mode_still_validates_grants(self):
        class _DoubleGrant(SwitchScheduler):
            def schedule(self, candidate_lists, cycle):
                return [(0, 0, 1), (0, 1, 2)]

        router, sim = single_router(_DoubleGrant(), checked=True)
        vc_index = router.open_connection(1, 0, 1, BandwidthRequest(1))
        assert router.inject(0, vc_index, Flit(FlitType.DATA, 1))
        with pytest.raises(ValueError, match="input port 0 granted twice"):
            sim.run(1)

    def test_checked_mode_catches_a_grant_nobody_offered(self):
        """VC 0 of input 0 offers output 1; the rogue grant names VC 1,
        never bound, so its slot holds no VC object.  Checked mode
        refuses it before anything moves.  Unchecked, ``_transmit`` has
        no guard for an unbuilt slot: it fails reading the slot, still
        before anything moves."""

        class _RogueGrant(SwitchScheduler):
            def schedule(self, offer_lists, cycle):
                return [(0, 1, 1)]

        for checked, error, message in (
            (True, ValueError, r"grant \(0, 1, 1\) matches no offer"),
            (False, AttributeError, "'NoneType' object has no attribute 'buffer'"),
        ):
            router, sim = single_router(_RogueGrant(), checked=checked)
            vc_index = router.open_connection(1, 0, 1, BandwidthRequest(1))
            assert router.input_ports[0].vcs[1] is None
            assert router.inject(0, vc_index, Flit(FlitType.DATA, 1))
            with pytest.raises(error, match=message):
                sim.run(1)
            assert router.input_ports[0].vcs[vc_index].occupancy == 1

    def test_checked_mode_catches_a_grant_to_a_bound_empty_vc(self):
        """As above, but VC 1 is bound (a second connection, no flit):
        checked mode refuses the grant; unchecked, the transmit guard is
        what fires."""

        class _RogueGrant(SwitchScheduler):
            def schedule(self, offer_lists, cycle):
                return [(0, 1, 1)]

        for checked, error, message in (
            (True, ValueError, r"grant \(0, 1, 1\) matches no offer"),
            (False, RuntimeError, "VC 0.1 empty"),
        ):
            router, sim = single_router(_RogueGrant(), checked=checked)
            vc_index = router.open_connection(1, 0, 1, BandwidthRequest(1))
            assert router.open_connection(2, 0, 2, BandwidthRequest(1)) == 1
            assert router.inject(0, vc_index, Flit(FlitType.DATA, 1))
            with pytest.raises(error, match=message):
                sim.run(1)
            assert router.input_ports[0].vcs[vc_index].occupancy == 1
