"""A finished experiment frees itself by reference counting.

Every run of a kind ends with :meth:`Resumable.close`, which unhooks the
kernel's tickers and queued events and the network's link and host
handlers — the back-edges that would otherwise leave the whole
graph as cyclic garbage until a full collection.  These tests run with
the cyclic collector off: what is still alive then is either referenced
or leaked into a cycle, and neither may hold a router, a simulator or a
network.
"""

import gc
import weakref

import pytest

from repro.core.config import RouterConfig
from repro.core.router import Router
from repro.fabric import Fabric, FabricWorker, submit_sweep
from repro.harness.churn import ChurnSpec, ChurnWorkload
from repro.harness.network_experiment import NetworkExperiment, NetworkExperimentSpec
from repro.harness.single_router import (
    ExperimentSpec,
    SimulatedWorkerCrash,
    SingleRouterExperiment,
    run_single_router_experiment,
)
from repro.harness.sweep import SweepAxis, sweep_points
from repro.network.network import Network
from repro.sim.engine import Simulator

TINY = RouterConfig(num_ports=4, vcs_per_port=32, enforce_round_budgets=False)

RUNS = {
    "single_router": (
        SingleRouterExperiment,
        ExperimentSpec(target_load=0.4, warmup_cycles=200, measure_cycles=800),
    ),
    "network": (
        NetworkExperiment,
        NetworkExperimentSpec(
            num_nodes=6,
            target_link_load=0.1,
            best_effort_rate=0.5,
            warmup_cycles=200,
            measure_cycles=800,
        ),
    ),
    "churn": (ChurnWorkload, ChurnSpec(num_sessions=20, num_nodes=6)),
}


@pytest.fixture
def no_collector():
    """Run the test with the cyclic garbage collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def built(monkeypatch):
    """Weak references to every Router, Simulator and Network built."""
    refs = []
    for cls in (Router, Simulator, Network):
        monkeypatch.setattr(cls, "__init__", _recording(cls.__init__, refs))
    return refs


def _recording(init, refs):
    def recording_init(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    return recording_init


def _alive(refs):
    return [type(obj).__name__ for obj in (ref() for ref in refs) if obj is not None]


@pytest.mark.usefixtures("no_collector")
class TestAFinishedRunFreesItself:
    @pytest.mark.parametrize("kind", sorted(RUNS))
    def test_run_leaves_no_component_alive(self, kind, built):
        cls, spec = RUNS[kind]
        result = cls.run(spec)
        assert built, "nothing was built"
        assert _alive(built) == []  # the result is still held
        del result
        assert _alive(built) == []

    @pytest.mark.parametrize("kind", ["single_router", "network"])
    def test_a_checkpointed_and_resumed_run_frees_both_graphs(
        self, kind, built, tmp_path
    ):
        cls, spec = RUNS[kind]
        path = tmp_path / "point.ckpt"
        cls.run(spec, checkpoint_every=400, checkpoint_path=path)
        assert _alive(built) == []
        # Resumed from the last checkpoint: the unpickled graph goes too.
        cls.run(spec, checkpoint_every=400, checkpoint_path=path, resume=True)
        assert _alive(built) == []

    def test_a_run_that_raises_is_closed_too(self, built, tmp_path):
        _, spec = RUNS["single_router"]
        with pytest.raises(SimulatedWorkerCrash):
            run_single_router_experiment(
                spec,
                checkpoint_every=100,
                checkpoint_path=tmp_path / "c.ckpt",
                _crash_at_cycle=300,
            )
        assert _alive(built) == []

    def test_a_fabric_worker_holds_one_router_at_a_time(
        self, built, monkeypatch, tmp_path
    ):
        """Draining a grid, no earlier point's router is alive when the
        next point builds its own."""
        live_at_build = []
        build = Router.__init__

        def counting_init(router, *args, **kwargs):
            live_at_build.append(_alive(built).count("Router"))
            build(router, *args, **kwargs)

        monkeypatch.setattr(Router, "__init__", counting_init)
        fabric = Fabric(
            directory=tmp_path / "fabric", checkpoint_every=500, revision="rev-a"
        )
        base = ExperimentSpec(
            target_load=0.4,
            config=TINY,
            candidates=4,
            warmup_cycles=300,
            measure_cycles=1500,
        )
        axes = [SweepAxis("seed", (3, 4, 5))]
        submit_sweep(
            fabric, sweep_points(base, axes), run_single_router_experiment,
            axes=tuple(axes),
        )
        assert FabricWorker(fabric).drain() == 3
        assert live_at_build == [0, 0, 0]
        assert _alive(built) == []


class TestClosedSimulator:
    def test_refuses_to_run_or_take_work(self):
        sim = Simulator()
        sim.close()
        for call in (
            lambda: sim.run(1),
            lambda: sim.step(),
            lambda: sim.schedule(1, print),
            lambda: sim.schedule_at(5, print),
            lambda: sim.add_ticker(lambda cycle: None),
        ):
            with pytest.raises(RuntimeError, match="closed simulator"):
                call()

    def test_unhooks_queued_events_and_tickers(self):
        _, spec = RUNS["single_router"]
        experiment = SingleRouterExperiment(spec)
        experiment.run_to(300)
        sim = experiment.sim
        queued = [
            event for lane in sim.events._lanes.values() for event in lane
        ]
        assert queued
        experiment.close()
        assert not sim.events
        assert all(event.action is None and event.cancelled for event in queued)
        assert all(ticker.tick is None for ticker in sim._tickers)
        # The components stay readable, and closing again is a no-op.
        assert experiment.router.stats.get_counter("cycles") == 100  # since warm-up
        experiment.close()
