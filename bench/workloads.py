"""The six benchmark workloads, built through the public API only.

Each workload is a class with the same small surface:

* ``__init__(seed, scale)`` builds the scenario -- everything a user pays
  before the first simulated cycle (topology, plan, connection set-up);
* ``run()`` is the timed region and returns the cycles it simulated;
* ``summary()`` reads the modelled router's own numbers afterwards;
* ``checks(log)`` returns the correctness failures, as strings.

No engine flag is passed anywhere: the benchmark measures the default
configuration, as a user gets it.  Cycle counts are stated for ``scale``
1.0 (``--seconds`` equal to ``run_seconds`` in BENCHMARK.json) and scale
linearly, so for a fixed (seed, seconds) every simulated number repeats
exactly.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro import (
    BandwidthRequest,
    BiasedPriority,
    CbrSource,
    ConnectionManager,
    GreedyPriorityScheduler,
    LoadPlanner,
    MpegProfile,
    Network,
    NetworkInterface,
    Router,
    RouterConfig,
    SeededRng,
    Simulator,
    irregular,
    torus,
)
from repro.fabric import Fabric, submit_sweep
from repro.harness import (
    ChurnSpec,
    ChurnWorkload,
    ExperimentSpec,
    SingleRouterExperiment,
    SweepAxis,
    run_single_router_experiment,
    run_sweep,
)
from repro.harness.network_experiment import (
    NetworkExperiment,
    NetworkExperimentSpec,
    attach_delivery_log,
)
from repro.harness.sweep import sweep_points
from repro.qos import summarise_weighted
from repro.routing.dimension_order import dimension_order_search

#: One delivered flit in a traced run's log: (connection id, sequence).
Delivery = Tuple[int, int]


def _cycles(base: int, scale: float, floor: int) -> int:
    return max(floor, round(base * scale))


def _digest(rows: Iterable[tuple]) -> str:
    """sha256 over the sorted result rows (floats by ``repr``: exact)."""
    text = "\n".join(repr(row) for row in sorted(rows))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _connection_rows(stats: Mapping[int, Any]) -> List[tuple]:
    return [
        (cid, s.flits, s.delay.mean, s.jitter.mean)
        for cid, s in stats.items()
        if s.flits
    ]


def _invariant_failures(routers: Iterable[Router]) -> List[str]:
    failures = []
    for router in routers:
        try:
            router.check_invariants()
        except AssertionError as exc:
            failures.append(f"check_invariants: {exc}")
    return failures


def _in_order_failures(log: Iterable[Delivery]) -> List[str]:
    """Every connection's flits arrive as sequence 0, 1, 2, ... ."""
    expected: Dict[int, int] = {}
    for connection_id, sequence in log:
        if sequence != expected.get(connection_id, 0):
            return [
                f"in-order: connection {connection_id} delivered sequence "
                f"{sequence}, expected {expected.get(connection_id, 0)}"
            ]
        expected[connection_id] = sequence + 1
    return []


def _conservation_failures(
    sources: Iterable[Any], routers: Iterable[Router], delivered: int, link_slots: int
) -> List[str]:
    """offered = delivered + buffered + in flight.

    What is in flight on the links is not visible from outside, but it is
    bounded: each directed link carries at most one flit per cycle of
    latency (``link_slots``; 0 for a single router).
    """
    sources = list(sources)
    offered = sum(source.flits_generated for source in sources)
    waiting = sum(source.backlog for source in sources)
    buffered = sum(router.buffered_flits() for router in routers)
    in_flight = offered - waiting - buffered - delivered
    if 0 <= in_flight <= link_slots:
        return []
    return [
        f"conservation: offered {offered} != delivered {delivered} + at source "
        f"{waiting} + buffered {buffered} + in flight (0..{link_slots})"
    ]


class _Workload:
    """What every workload has besides run(), summary() and checks()."""

    def attach_log(self) -> Optional[list]:
        """Start logging delivered flits (traced runs); None when the
        workload's routers are out of reach."""
        return None

    def cleanup(self) -> None:
        """Remove what the workload left on disk: by default, nothing."""


class _SinkLog:
    """Output handler for a single router's sink port (traced runs)."""

    def __init__(self, log: List[Delivery]) -> None:
        self.log = log

    def __call__(self, flit: Any, _output_vc: int) -> None:
        self.log.append((flit.connection_id, flit.sequence))


class _SingleRouter(_Workload):
    """Shared by the two single-router workloads: one router, CBR sources
    into ideal sinks, statistics per connection on the router."""

    router: Router
    sources: List[CbrSource]
    planned: int

    def attach_log(self) -> List[Delivery]:
        log: List[Delivery] = []
        # Assigned directly, not through set_output_handler: the log is the
        # benchmark's, not a link of the modelled network.
        for port in range(len(self.router.output_handlers)):
            self.router.output_handlers[port] = _SinkLog(log)
        return log

    def summary(self) -> Dict[str, Any]:
        stats = self.router.connection_stats
        qos = summarise_weighted(stats)
        return {
            "sim_delay_mean_cycles": qos.mean_delay_cycles,
            "sim_jitter_mean_cycles": qos.mean_jitter_cycles,
            "sim_flits_delivered": qos.flits_delivered,
            "sim_digest": _digest(_connection_rows(stats)),
            "ops_attempted": self.planned,
            "ops_failed": self.planned - len(self.sources),
        }

    def checks(self, log: Optional[List[Delivery]]) -> List[str]:
        failures = _invariant_failures([self.router])
        if log is not None:
            failures += _in_order_failures(log)
            failures += _conservation_failures(
                self.sources, [self.router], len(log), link_slots=0
            )
        return failures


class RouterPaperLoad90(_SingleRouter):
    name = "router_paper_load90"
    why = (
        "The paper's Fig. 3/4 operating point: narrow eligible sets, time split "
        "between candidates(), sources+inject and the per-flit path."
    )

    def __init__(self, seed: int, scale: float) -> None:
        spec = ExperimentSpec(
            target_load=0.9,
            warmup_cycles=_cycles(5000, scale, 200),
            measure_cycles=_cycles(25000, scale, 600),
            seed=seed,
        )
        self.experiment = SingleRouterExperiment(spec)
        self.router = self.experiment.router
        self.sources = self.experiment.sources
        self.planned = len(self.experiment.plan.specs)
        self.sizes = {
            "warmup_cycles": spec.warmup_cycles,
            "measure_cycles": spec.measure_cycles,
            "connections": self.experiment.admitted,
        }

    def run(self) -> int:
        self.experiment.result()
        return self.experiment.total_cycles


class RouterSat256vc(_SingleRouter):
    name = "router_sat_256vc"
    why = (
        "Phase-aligned bursts keep hundreds of VCs eligible at once: candidates() "
        "dominates and the per-flit path is small; the mirror of router_paper_load90."
    )

    #: Two near-equal rates: bursts stay aligned (periods 496 and 506
    #: cycles) but drift against each other, so jitter is not identically 0
    #: as it is with one rate and one phase.
    RATES_BPS = (2.5e6, 2.45e6)
    #: Offered load that fills ~2000 of the 2048 VCs without a refusal.
    TARGET_LOAD = 0.5

    def __init__(self, seed: int, scale: float) -> None:
        rng = SeededRng(seed, "bench-router-sat")
        config = RouterConfig(vcs_per_port=256, enforce_round_budgets=False)
        sim = Simulator()
        router = Router(
            config,
            BiasedPriority(),
            GreedyPriorityScheduler(),
            sim,
            selection="per_output",
            rng=rng.spawn("router"),
        )
        plan = LoadPlanner(config, rng.spawn("plan"), rate_set=self.RATES_BPS).plan(
            self.TARGET_LOAD
        )
        sources = []
        for item in plan.specs:
            vc_index = router.open_connection(
                item.connection_id,
                item.input_port,
                item.output_port,
                BandwidthRequest(config.rate_to_cycles_per_round(item.rate_bps)),
                interarrival_cycles=config.rate_to_interarrival_cycles(item.rate_bps),
            )
            if vc_index is None:
                continue
            source = CbrSource(
                sim,
                router,
                item.connection_id,
                item.input_port,
                vc_index,
                item.rate_bps,
                config,
                phase=0.0,
            )
            source.start()
            sources.append(source)
        self.sim = sim
        self.router = router
        self.sources = sources
        self.planned = len(plan.specs)
        self.cycles = _cycles(20000, scale, 1200)
        self.sizes = {"cycles": self.cycles, "connections": len(sources)}

    def run(self) -> int:
        return self.sim.run(self.cycles)


class _NetworkScenario(_Workload):
    """Shared by the workloads that simulate a multi-router network."""

    network: Network

    def attach_log(self) -> List[Delivery]:
        # rows of (cycle, node, port, connection, sequence, created)
        return attach_delivery_log(self)

    @staticmethod
    def _deliveries(log: List[tuple]) -> Iterable[Delivery]:
        return ((row[3], row[4]) for row in log)

    def _link_slots(self) -> int:
        topology = self.network.topology
        return 2 * len(topology.edges()) * self.network.link_latency


class _StreamNetwork(_NetworkScenario):
    """A network loaded with long-lived streams through its interfaces."""

    interfaces: List[NetworkInterface]
    streams: List[Tuple[int, Any]]  # (destination node, OpenStream)

    def _end_to_end_rows(self) -> List[tuple]:
        rows: List[tuple] = []
        for interface in self.interfaces:
            rows += _connection_rows(interface.end_to_end)
        return rows

    def checks(self, log: Optional[List[tuple]]) -> List[str]:
        failures = _invariant_failures(self.network.routers)
        if log is not None:
            failures += _in_order_failures(self._deliveries(log))
            failures += _conservation_failures(
                (stream.source for _, stream in self.streams),
                self.network.routers,
                len(log),
                self._link_slots(),
            )
        return failures


class Mesh8Load60(_StreamNetwork):
    name = "mesh8_load60"
    why = (
        "The loaded network: a flat profile where Router.tick self time and the "
        "link plane lead and candidates() is a minor share; set-up is dominated by "
        "connection establishment."
    )

    def __init__(self, seed: int, scale: float) -> None:
        spec = NetworkExperimentSpec(
            topology="mesh8x8",
            routing="dimension_order",
            target_link_load=0.6,
            warmup_cycles=_cycles(500, scale, 100),
            measure_cycles=_cycles(1000, scale, 300),
            seed=seed,
        )
        self.experiment = NetworkExperiment(spec)
        self.network = self.experiment.network
        self.interfaces = self.experiment.interfaces
        self.streams = self.experiment.streams
        self.sizes = {
            "warmup_cycles": spec.warmup_cycles,
            "measure_cycles": spec.measure_cycles,
            "streams": len(self.streams),
            # Admission refusals are how the experiment finds the load, so
            # they are reported here and per layer, not as failed operations.
            "setup_attempts": self.experiment.attempts,
        }

    def run(self) -> int:
        self.result = self.experiment.result()
        return self.experiment.total_cycles

    def summary(self) -> Dict[str, Any]:
        result = self.result
        return {
            "sim_delay_mean_cycles": result.mean_delay_cycles,
            "sim_jitter_mean_cycles": result.mean_jitter_cycles,
            "sim_flits_delivered": result.delay_cycles.count,
            "sim_digest": _digest(self._end_to_end_rows()),
            "ops_attempted": len(self.streams),
            "ops_failed": 0,
        }


class SparseTorus16(_StreamNetwork):
    name = "sparse_torus16"
    why = (
        "The bypass workload: 256 mostly idle routers, so kernel stepping and idle "
        "accounting dominate and data-plane optimisations predict no change."
    )

    #: Each hot spot is one destination fed by these (dx, dy, rate) sources;
    #: under XY routing they merge on the destination's column.  Offsets and
    #: rates are part of the workload; the seed places the hot spots and
    #: draws the phases and the frame sizes.  The rates are not round: with
    #: the paper's rate set every period divides 248 cycles, so two streams
    #: collide always or never, by phase.  The video stream is what keeps
    #: jitter away from 0, where a few unrelated CBR streams leave it: a
    #: frame is a burst, and a burst queues behind itself.
    HOT_SPOT_CBR = ((-5, -3, 109.37e6), (4, -6, 47.11e6))
    HOT_SPOT_VBR = (0, -7, MpegProfile(mean_rate_bps=20e6, frame_rate_hz=30000.0))
    HOT_SPOTS = 2
    WIDTH = 16

    def __init__(self, seed: int, scale: float) -> None:
        rng = SeededRng(seed, "bench-sparse-torus")
        topology = torus(self.WIDTH, self.WIDTH)
        config = RouterConfig(
            num_ports=topology.num_ports,
            vcs_per_port=64,
            round_factor=8,
            enforce_round_budgets=False,
        )
        sim = Simulator()
        network = Network(
            topology,
            config,
            BiasedPriority(),
            sim,
            rng.spawn("network"),
            routing="dimension_order",
        )
        manager = ConnectionManager(network, path_search=dimension_order_search)
        self.interfaces = [
            NetworkInterface(network, manager, node, rng=rng.spawn(f"ni{node}"))
            for node in range(topology.num_nodes)
        ]
        place = rng.spawn("placement")
        self.streams = []
        self.refused = 0
        width = self.WIDTH
        first_x, first_y = place.randint(0, width - 1), place.randint(0, width - 1)
        for spot in range(self.HOT_SPOTS):
            # Half a torus apart, so the hot spots never share a link.
            x = (first_x + spot * width // 2) % width
            y = (first_y + spot * width // 2) % width
            destination = y * width + x

            def interface(dx: int, dy: int) -> NetworkInterface:
                return self.interfaces[((y + dy) % width) * width + (x + dx) % width]

            opened = [
                interface(dx, dy).open_cbr(destination, rate)
                for dx, dy, rate in self.HOT_SPOT_CBR
            ]
            dx, dy, profile = self.HOT_SPOT_VBR
            opened.append(interface(dx, dy).open_vbr(destination, profile))
            self.streams += [(destination, s) for s in opened if s is not None]
            self.refused += opened.count(None)
        self.sim = sim
        self.network = network
        self.warmup = _cycles(1000, scale, 200)
        self.measure = _cycles(30000, scale, 2000)
        self.sizes = {
            "warmup_cycles": self.warmup,
            "measure_cycles": self.measure,
            "streams": len(self.streams),
        }

    def run(self) -> int:
        cycles = self.sim.run(self.warmup)
        for interface in self.interfaces:
            interface.end_to_end.clear()
        return cycles + self.sim.run(self.measure)

    def summary(self) -> Dict[str, Any]:
        stats: Dict[int, Any] = {}
        for interface in self.interfaces:
            stats.update(interface.end_to_end)
        qos = summarise_weighted(stats)
        return {
            "sim_delay_mean_cycles": qos.mean_delay_cycles,
            "sim_jitter_mean_cycles": qos.mean_jitter_cycles,
            "sim_flits_delivered": qos.flits_delivered,
            "sim_digest": _digest(self._end_to_end_rows()),
            "ops_attempted": len(self.streams) + self.refused,
            "ops_failed": self.refused,
        }


class ChurnMix(_NetworkScenario):
    name = "churn_mix"
    why = (
        "Writes beside reads: VCs are opened, renegotiated and torn down through the "
        "probe protocol while being scheduled; any mirrored per-VC state pays its "
        "invalidation cost here and nowhere else."
    )

    #: The 12-node irregular network is part of the workload, not of the
    #: seed: a different wiring per seed moves every simulated number by
    #: tens of percent, which says nothing about the simulator.
    TOPOLOGY_SEED = 7
    #: Many short sessions rather than few long ones: the work in a run is
    #: a sum over sessions, and it is the number of terms that makes two
    #: seeds agree.  ~60 sessions are alive at any time.
    MEAN_INTERARRIVAL = 10
    MEAN_HOLDING = 600
    #: Share of the arrival span that is timed.  The arrival process is
    #: still running when it ends, so the timed region is a fixed number of
    #: cycles of steady churn; the drain that follows is needed for the
    #: leak audit but is mostly fast-forwarded idle time.
    TIMED_SHARE = 0.9

    def __init__(self, seed: int, scale: float) -> None:
        spec = ChurnSpec(
            num_sessions=_cycles(5000, scale, 200),
            mean_interarrival_cycles=self.MEAN_INTERARRIVAL,
            mean_holding_cycles=self.MEAN_HOLDING,
            rates_bps=(5e6, 20e6),
            # A frame every ~320 cycles, so a session carries a few.
            vbr_frame_rate_hz=30000.0,
            drain_cycles=20000,
            seed=seed,
        )
        topology = irregular(
            spec.num_nodes,
            SeededRng(self.TOPOLOGY_SEED, "bench-churn-topology"),
            mean_degree=spec.mean_degree,
        )
        self.workload = ChurnWorkload(spec, topology=topology)
        self.network = self.workload.network
        self.horizon = round(
            self.TIMED_SHARE * spec.num_sessions * self.MEAN_INTERARRIVAL
        )
        self.sizes = {"sessions": spec.num_sessions, "timed_cycles": self.horizon}

    def run(self) -> int:
        self.workload.run_to(self.horizon)
        return self.workload.now

    def summary(self) -> Dict[str, Any]:
        # A short stride stops at the drain point, not 50 000 cycles later.
        self.workload.run_until_drained(stride=500)
        result = self.result = self.workload.result()
        qos = summarise_weighted(self.workload.end_to_end)
        return {
            "sim_delay_mean_cycles": qos.mean_delay_cycles,
            "sim_jitter_mean_cycles": qos.mean_jitter_cycles,
            "sim_flits_delivered": result.flits_delivered,
            "sim_digest": _digest(_connection_rows(self.workload.end_to_end)),
            "ops_attempted": result.arrivals,
            "ops_failed": result.blocked,
            "probe": {
                "refused": result.blocked,
                "backtracks": result.backtracks,
                "setup_p99_cycles": result.setup_p99,
            },
        }

    def checks(self, log: Optional[List[tuple]]) -> List[str]:
        result = self.result
        failures = _invariant_failures(self.network.routers)
        if not result.drained:
            failures.append("churn: not drained")
        if not result.leak_free:
            failures.append(f"churn: leaked {result.leak_report[:3]}")
        if self.network.total_buffered():
            failures.append("churn: flits still buffered after drain")
        if log is not None:
            failures += _in_order_failures(self._deliveries(log))
            if len(log) != result.flits_delivered:
                failures.append(
                    f"conservation: log has {len(log)} flits, result "
                    f"{result.flits_delivered}"
                )
        return failures


class FabricGrid(_Workload):
    name = "fabric_grid"
    why = (
        "What a checkpointed sweep on the fabric costs: queue leases, store writes "
        "and checkpoint saves on top of the simulation; ckpt and fabric changes show "
        "here and nowhere else."
    )

    LOADS = (0.3, 0.5, 0.7, 0.9)
    CHECKPOINT_EVERY = 1000

    def __init__(self, seed: int, scale: float) -> None:
        # Inside the benchmark's own directory: it may write nowhere else.
        self.workdir = Path(__file__).resolve().parent / "out" / f"fabric-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        workdir = self.workdir
        self.base = ExperimentSpec(
            target_load=self.LOADS[0],
            warmup_cycles=_cycles(1000, scale, 100),
            measure_cycles=_cycles(3500, scale, 400),
        )
        self.axes = (
            SweepAxis("target_load", self.LOADS),
            SweepAxis("seed", (seed, seed + 1)),
        )
        self.points = sweep_points(self.base, self.axes)
        self.fabric = Fabric(workdir / "cold", checkpoint_every=self.CHECKPOINT_EVERY)
        # `repro fabric submit`: the grid is on the queue before any worker
        # starts, so submission is set-up and draining is the timed region.
        submit_sweep(self.fabric, self.points, run_single_router_experiment, self.axes)
        self.sizes = {
            "points": len(self.points),
            "warmup_cycles": self.base.warmup_cycles,
            "measure_cycles": self.base.measure_cycles,
            "checkpoint_every": self.CHECKPOINT_EVERY,
        }

    # No delivery log: the points' routers live and die inside run_sweep.

    def run(self) -> int:
        # A point that raises ends the child: the parent then counts every
        # operation of the workload as failed.
        self.cold = run_sweep(self.base, self.axes, fabric=self.fabric)
        total = self.base.warmup_cycles + self.base.measure_cycles
        return len(self.cold.results) * total

    def summary(self) -> Dict[str, Any]:
        rows = self.cold.rows(
            ["mean_delay_cycles", "mean_jitter_cycles", "utilisation", "connections"]
        )
        results = list(self.cold.results.values())
        flits = sum(r.summary.flits_delivered for r in results)

        def weighted(metric: str) -> float:
            if not flits:
                return 0.0
            return sum(
                getattr(r, metric) * r.summary.flits_delivered for r in results
            ) / flits

        self._warm_rerun()
        restore_failed = self._restore_mismatch()
        self.failures = self.warm_failures + ([restore_failed] if restore_failed else [])
        return {
            "sim_delay_mean_cycles": weighted("mean_delay_cycles"),
            "sim_jitter_mean_cycles": weighted("mean_jitter_cycles"),
            "sim_flits_delivered": flits,
            "sim_digest": _digest(tuple(row) for row in rows),
            # Operations: the grid's points and one checkpoint restore.
            "ops_attempted": len(self.points) + 1,
            "ops_failed": int(bool(restore_failed)),
            "warm_rerun_s": self.warm_rerun_s,
        }

    def _warm_rerun(self) -> None:
        """The same grid on a new queue against the populated store: every
        point must come out of the store, equal to what went in."""
        warm_fabric = Fabric(
            self.workdir / "warm",
            checkpoint_every=self.CHECKPOINT_EVERY,
            store_dir=self.fabric.store_root,
        )
        start = time.perf_counter()
        warm = run_sweep(self.base, self.axes, fabric=warm_fabric)
        self.warm_rerun_s = time.perf_counter() - start
        metrics = ["mean_delay_cycles", "mean_jitter_cycles", "utilisation"]
        self.warm_failures = []
        if warm.rows(metrics) != self.cold.rows(metrics):
            self.warm_failures.append("fabric: warm rows differ from cold rows")
        recomputed = sum(
            not manifest["fabric"]["cached"] for manifest in warm.manifests.values()
        )
        if recomputed:
            self.warm_failures.append(f"fabric: warm re-run recomputed {recomputed} points")

    def _restore_mismatch(self) -> Optional[str]:
        """One point, checkpointed mid-run and resumed, must end exactly
        where the fabric's straight run of it ended."""
        key, spec = self.points[0]
        straight = self.cold.results[key]
        path = self.workdir / "restore.ckpt"
        experiment = SingleRouterExperiment(spec)
        experiment.run_to(experiment.total_cycles // 2)
        experiment.checkpoint(path)
        resumed = SingleRouterExperiment.resume(path, expect_spec=spec)
        self.restored_router = resumed.router
        result = resumed.result()
        if (result.summary, result.utilisation) != (straight.summary, straight.utilisation):
            return "restore: resumed result differs from the straight run"
        return None

    def checks(self, _log: None) -> List[str]:
        return self.failures + _invariant_failures([self.restored_router])

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = (
    RouterPaperLoad90,
    RouterSat256vc,
    Mesh8Load60,
    SparseTorus16,
    ChurnMix,
    FabricGrid,
)
