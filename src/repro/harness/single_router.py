"""The paper's single-router CBR experiment (paper §5).

"Simulation experiments were conducted using a discrete event simulator
that models a single router.  The following experiments represent an 8x8
router with 256 virtual channels/input port, 1.24 Gbps physical links and
128-bit flits. ... Connections were randomly selected from the set (...)
and assigned to random input and output ports on the router. ... The
simulations were run until steady state was reached and statistics
gathered over approximately 100,000 router cycles."

:func:`run_single_router_experiment` builds exactly that setup for a given
switch scheduler, priority scheme, candidate count and offered load, and
returns the delay/jitter/utilisation numbers Figures 3-5 plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.bandwidth import BandwidthRequest
from ..core.config import RouterConfig
from ..core.priority import make_priority_scheme
from ..core.router import Router
from ..core.switch_scheduler import (
    DecScheduler,
    GreedyPriorityScheduler,
    PerfectSwitchScheduler,
    SwitchScheduler,
)
from ..core.virtual_channel import ServiceClass
from ..obs import FlightRecorder
from ..qos.metrics import QosSummary, per_rate_breakdown, summarise, summarise_weighted
from ..sim.engine import Simulator
from ..sim.rng import SeededRng
from ..traffic.cbr import CbrSource
from ..traffic.load import ConnectionPlan, LoadPlanner
from .resumable import Resumable, SimulatedWorkerCrash  # noqa: F401 (re-export)

#: Default paper configuration (8x8, 256 VCs, 1.24 Gbps, 128-bit flits).
#: Round budgets are off: §5.1 studies "a simple link scheduling algorithm"
#: driven purely by the priority scheme (admission control alone keeps CBR
#: connections within link bandwidth).
PAPER_CONFIG = RouterConfig(enforce_round_budgets=False)

#: Named scheduler variants the evaluation compares.
SCHEDULERS = ("greedy", "dec", "perfect")


@dataclass(frozen=True)
class ExperimentSpec:
    """One point of the evaluation grid."""

    target_load: float
    scheduler: str = "greedy"  # 'greedy' (the MMR), 'dec', 'perfect'
    priority: str = "biased"  # 'biased', 'fixed', 'age', 'rate', 'static'
    candidates: int = 8
    # Candidate selection at the link scheduler.  'per_output' (default)
    # offers the best flit per requested output link — the bit-vector
    # hardware reading that keeps utilisation insensitive to the priority
    # scheme; 'priority' and 'rotating' are ablations.  The DEC scheduler
    # always uses random selection.
    selection: str = "per_output"
    config: RouterConfig = PAPER_CONFIG
    warmup_cycles: int = 20000
    measure_cycles: int = 100000
    seed: int = 1
    # Bins for the per-flit delay histogram (0 disables; enables p50/p99
    # tail reporting on the result).
    delay_histogram_bins: int = 0
    # Attach a flight recorder (flit trace, telemetry rings, kernel
    # profile); warm-up samples are discarded with the statistics.
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; known: {SCHEDULERS}"
            )
        if not 0.0 < self.target_load <= 1.0:
            raise ValueError(f"target_load must be in (0, 1], got {self.target_load}")
        if self.warmup_cycles < 0 or self.measure_cycles <= 0:
            raise ValueError("cycle counts must be non-negative/positive")


@dataclass
class ExperimentResult:
    """Measured outcome of one experiment point."""

    spec: ExperimentSpec
    offered_load: float
    connections: int
    #: Flit-weighted aggregate — the paper's headline statistic (statistics
    #: are gathered per delivered flit, so high-speed connections dominate;
    #: the paper notes slow connections see "relatively higher" jitter).
    summary: QosSummary
    #: Per-connection aggregate (each connection's mean counted once).
    per_connection: QosSummary
    utilisation: float
    per_rate: Dict[float, QosSummary] = field(default_factory=dict)
    max_interface_backlog: int = 0
    #: (p50, p99) per-flit delay in cycles, when the histogram was enabled.
    delay_percentiles: Optional[tuple] = None
    #: The flight recorder, when ``spec.telemetry`` asked for one.
    recorder: Optional[FlightRecorder] = None
    #: Checkpoint lineage, when the run was checkpointed or resumed:
    #: path, resumed_from_cycle (None for a straight run), and how many
    #: checkpoints were written.  Merged into sweep manifests.
    checkpoint: Optional[Dict[str, Any]] = None

    @property
    def mean_delay_cycles(self) -> float:
        """Flit-weighted mean switch delay, in flit cycles."""
        return self.summary.mean_delay_cycles

    @property
    def mean_delay_us(self) -> float:
        """Flit-weighted mean switch delay, in microseconds."""
        return self.summary.mean_delay_us(self.spec.config)

    @property
    def mean_jitter_cycles(self) -> float:
        """Flit-weighted mean jitter, in flit cycles."""
        return self.summary.mean_jitter_cycles


def build_switch_scheduler(spec: ExperimentSpec, rng: SeededRng) -> SwitchScheduler:
    """Instantiate the switch scheduler named by the spec."""
    if spec.scheduler == "greedy":
        return GreedyPriorityScheduler()
    if spec.scheduler == "dec":
        return DecScheduler(rng.spawn("dec"))
    return PerfectSwitchScheduler(spec.config.num_ports)


class SingleRouterExperiment(Resumable):
    """One evaluation point as a resumable object.

    The constructor builds the full scenario (router, admitted
    connections, sources) exactly as the historical one-shot function
    did; ``run_to``, ``checkpoint`` and ``resume``
    (:class:`~repro.harness.resumable.Resumable`) advance it across the
    warm-up boundary (statistics reset) exactly once and round-trip the
    whole live graph, so a resumed run continues bit-identically to one
    that never stopped.
    """

    KIND = "single_router"
    MANIFEST_FIELDS = (
        "scheduler", "priority", "target_load", "warmup_cycles", "measure_cycles"
    )

    def __init__(
        self, spec: ExperimentSpec, plan: Optional[ConnectionPlan] = None
    ) -> None:
        rng = SeededRng(spec.seed, "experiment")
        config = self.config_of(spec)
        sim = Simulator()
        scheme = make_priority_scheme(spec.priority)
        switch_scheduler = build_switch_scheduler(spec, rng)
        selection = "random" if spec.scheduler == "dec" else spec.selection
        recorder = self.build_recorder(spec, config)
        router = Router(
            config,
            scheme,
            switch_scheduler,
            sim,
            selection=selection,
            rng=rng.spawn("router"),
            sink_outputs=True,
            delay_histogram_bins=spec.delay_histogram_bins,
            recorder=recorder,
        )
        if recorder is not None:
            recorder.attach(sim)

        if plan is None:
            plan = LoadPlanner(config, rng.spawn("plan")).plan(spec.target_load)
        priority_rng = rng.spawn("static-priority")
        phase_rng = rng.spawn("phase")
        sources: List[CbrSource] = []
        rates: Dict[int, float] = {}
        admitted = 0
        for item in plan.specs:
            request = BandwidthRequest(config.rate_to_cycles_per_round(item.rate_bps))
            interarrival = config.rate_to_interarrival_cycles(item.rate_bps)
            vc_index = router.open_connection(
                item.connection_id,
                item.input_port,
                item.output_port,
                request,
                service_class=ServiceClass.CBR,
                interarrival_cycles=interarrival,
                static_priority=priority_rng.random(),
            )
            if vc_index is None:
                # The planner stays inside link capacity, so refusals
                # indicate flit-cycle rounding; skip the connection rather
                # than fail.
                continue
            admitted += 1
            rates[item.connection_id] = item.rate_bps
            source = CbrSource(
                sim,
                router,
                item.connection_id,
                item.input_port,
                vc_index,
                item.rate_bps,
                config,
                phase=phase_rng.uniform(0.0, interarrival),
            )
            source.start()
            sources.append(source)

        self.spec = spec
        self.config = config
        self.sim = sim
        self.router = router
        self.recorder = recorder
        self.plan = plan
        self.sources = sources
        self.rates = rates
        self.admitted = admitted

    @staticmethod
    def config_of(spec: ExperimentSpec) -> RouterConfig:
        """The router configuration ``spec`` runs."""
        return spec.config.with_(candidates=spec.candidates)

    def _start_measurement(self) -> None:
        self.router.reset_statistics()
        if self.recorder is not None:
            # Warm-up flits and samples are not part of the measurement.
            self.recorder.clear()

    def result(self) -> ExperimentResult:
        """Summarise the (completed) run; runs any remaining cycles."""
        self.run_to(self.total_cycles)
        router = self.router
        active_stats = {
            connection_id: stats
            for connection_id, stats in router.connection_stats.items()
            if connection_id in self.rates
        }
        return ExperimentResult(
            spec=self.spec,
            offered_load=self.plan.offered_load,
            connections=self.admitted,
            summary=summarise_weighted(active_stats),
            per_connection=summarise(active_stats),
            utilisation=router.utilisation(),
            per_rate=per_rate_breakdown(active_stats, self.rates),
            max_interface_backlog=max(
                (source.max_interface_queue for source in self.sources), default=0
            ),
            delay_percentiles=(
                (
                    router.delay_histogram.quantile(0.5),
                    router.delay_histogram.quantile(0.99),
                )
                if router.delay_histogram is not None
                else None
            ),
            recorder=self.recorder,
        )


def run_single_router_experiment(
    spec: ExperimentSpec,
    plan: Optional[ConnectionPlan] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path=None,
    resume: bool = False,
    _crash_at_cycle: Optional[int] = None,
) -> ExperimentResult:
    """Run one point of the paper's evaluation grid.

    A pre-generated ``plan`` may be supplied so that different schedulers
    are compared on the *same* connection set (as the paper's common
    workload implies); otherwise the plan is derived from the seed.
    The checkpoint arguments are those of
    :meth:`~repro.harness.resumable.Resumable.run`.
    """
    return SingleRouterExperiment.run(
        spec,
        plan,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume=resume,
        crash_at_cycle=_crash_at_cycle,
    )
