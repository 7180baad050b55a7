"""Checkpoint identity oracles for the perf gate.

Same discipline as the kernel and scheduler identity checks: run a gated
scenario straight through, run it again with a checkpoint-at-midpoint /
restore / resume in the middle, and require the delivered-flit streams
and statistics to be *equal*, not approximately equal.  A checkpoint
subsystem that loses so much as one RNG draw or event-queue tiebreak
shows up here as a stream mismatch.

Both oracles restore from the file, never from the live object: what is
verified is the full save → bytes-on-disk → load → resume path.
"""

from __future__ import annotations

import os
import tempfile
from typing import List, Optional

from ..harness.kernel_bench import DeliveryRecord, build_saturated_scenario
from ..harness.network_experiment import (
    NetworkExperiment,
    NetworkExperimentSpec,
    NetworkExperimentResult,
)
from .codec import CheckpointCodec


def run_ckpt_router_identity_check(
    cycles: int,
    target_load: float = 0.9,
    seed: int = 7,
    checkpoint_dir: Optional[str] = None,
) -> dict:
    """Saturated 90%-load single router: straight vs checkpoint-resume.

    The scenario is the scheduler gate's 729-connection workload.  The
    checkpointed run snapshots at ``cycles // 2`` through the codec,
    discards the originals, reloads from disk, and finishes; delivered
    flit streams (connection, sequence, created, departed per flit) and
    the stats registry must match the straight run exactly.
    """
    straight_delivered: List[DeliveryRecord] = []
    sim, router = build_saturated_scenario(
        True, target_load, seed, delivered=straight_delivered
    )
    connections = len(router.connection_stats)
    sim.run(cycles)
    router.check_invariants()
    straight_stats = dict(router.stats.scalars)

    midpoint = cycles // 2
    delivered: List[DeliveryRecord] = []
    sim, router = build_saturated_scenario(True, target_load, seed, delivered=delivered)
    sim.run(midpoint)
    with tempfile.TemporaryDirectory(dir=checkpoint_dir) as tmp:
        path = os.path.join(tmp, "router.ckpt")
        header = CheckpointCodec.save(
            path,
            {"sim": sim, "router": router, "delivered": delivered},
            kind="simulator",
            cycle=sim.now,
            seed=seed,
            config=router.config,
        )
        del sim, router, delivered  # resume must come from the file alone
        _, components = CheckpointCodec.load(path, expect_kind="simulator")
        checkpoint_bytes = header.payload_bytes
    sim = components["sim"]
    router = components["router"]
    delivered = components["delivered"]
    sim.run(cycles - midpoint)
    router.check_invariants()
    resumed_stats = dict(router.stats.scalars)

    flits_identical = straight_delivered == delivered
    stats_identical = straight_stats == resumed_stats
    return {
        "identical": flits_identical and stats_identical,
        "flits_identical": flits_identical,
        "stats_identical": stats_identical,
        "flits_delivered": len(straight_delivered),
        "connections": connections,
        "cycles": cycles,
        "checkpoint_cycle": midpoint,
        "checkpoint_bytes": checkpoint_bytes,
        "target_load": target_load,
    }


def run_ckpt_columnar_identity_check(
    cycles: int,
    target_load: float = 0.9,
    seed: int = 7,
    checkpoint_dir: Optional[str] = None,
) -> dict:
    """Columnar engine through a checkpoint, including mid-run flag flips.

    Four runs of the saturated single-router scenario, all required to
    deliver the same flit stream and statistics as the straight scalar
    fast-path run:

    ``columnar_straight``
        ``columnar_state=True`` end to end (the plain engine-identity
        leg, here to localise failures to the checkpoint).
    ``columnar_resumed``
        Columnar run checkpointed at the midpoint, reloaded from disk,
        resumed columnar.  Arrays are never pickled — the codec stores
        only object state and the bank is rebuilt on first use — so this
        proves the object graph stayed authoritative.
    ``flip_off`` / ``flip_on``
        The same checkpoint resumed with the flag flipped to the scalar
        engine, and a scalar-run checkpoint resumed with the flag
        flipped to columnar.  Both directions must splice bit-exactly.
    """
    straight_delivered: List[DeliveryRecord] = []
    sim, router = build_saturated_scenario(
        True, target_load, seed, delivered=straight_delivered
    )
    connections = len(router.connection_stats)
    sim.run(cycles)
    router.check_invariants()
    straight_stats = dict(router.stats.scalars)
    reference = (straight_delivered, straight_stats)

    def _finish(components, flip: Optional[bool]):
        sim, router = components["sim"], components["router"]
        delivered = components["delivered"]
        if flip is not None:
            router.set_columnar_state(flip)
        sim.run(cycles - cycles // 2)
        router.check_invariants()
        return delivered, dict(router.stats.scalars)

    checkpoint_bytes = {}

    def _checkpointed(leg: str, columnar: bool, flip: Optional[bool]):
        delivered: List[DeliveryRecord] = []
        sim, router = build_saturated_scenario(
            True, target_load, seed,
            delivered=delivered, columnar_state=columnar,
        )
        sim.run(cycles // 2)
        with tempfile.TemporaryDirectory(dir=checkpoint_dir) as tmp:
            path = os.path.join(tmp, "columnar.ckpt")
            checkpoint_bytes[leg] = CheckpointCodec.save(
                path,
                {"sim": sim, "router": router, "delivered": delivered},
                kind="simulator",
                cycle=sim.now,
                seed=seed,
                config=router.config,
            ).payload_bytes
            del sim, router, delivered
            _, components = CheckpointCodec.load(path, expect_kind="simulator")
        return _finish(components, flip)

    legs = {}
    columnar_delivered: List[DeliveryRecord] = []
    sim, router = build_saturated_scenario(
        True, target_load, seed,
        delivered=columnar_delivered, columnar_state=True,
    )
    sim.run(cycles)
    router.check_invariants()
    legs["columnar_straight"] = (columnar_delivered, dict(router.stats.scalars))
    for leg, columnar, flip in (
        ("columnar_resumed", True, None),
        ("flip_off", True, False),
        ("flip_on", False, True),
    ):
        legs[leg] = _checkpointed(leg, columnar, flip)

    comparisons = {name: leg == reference for name, leg in legs.items()}
    return {
        "identical": all(comparisons.values()),
        **{f"{name}_identical": ok for name, ok in comparisons.items()},
        "flits_delivered": len(straight_delivered),
        "connections": connections,
        "cycles": cycles,
        "checkpoint_cycle": cycles // 2,
        "checkpoint_bytes": checkpoint_bytes,
        "target_load": target_load,
    }


def _network_summary(result: NetworkExperimentResult) -> dict:
    """The comparable fingerprint of a network run (mirrors perf_gate)."""
    return {
        "streams": result.streams,
        "attempts": result.attempts,
        "mean_hops": result.mean_hops,
        "delay_mean": result.delay_cycles.mean,
        "delay_count": result.delay_cycles.count,
        "jitter_mean": result.jitter_cycles.mean,
        "by_hops": result.by_hops,
        "best_effort_delivered": result.best_effort_delivered,
    }


def run_ckpt_network_identity_check(
    warmup: int = 2000,
    measure: int = 8000,
    num_nodes: int = 12,
    seed: int = 11,
    checkpoint_dir: Optional[str] = None,
) -> dict:
    """12-node multihop network: straight vs checkpoint-resume.

    The midpoint lands inside the measurement window with best-effort
    chatter events in flight, so the checkpoint must carry multi-router
    link state, per-interface end-to-end statistics, and the pending
    event queue to reproduce the straight run's summary exactly.
    """
    spec = NetworkExperimentSpec(
        target_link_load=0.3,
        num_nodes=num_nodes,
        best_effort_rate=0.5,
        warmup_cycles=warmup,
        measure_cycles=measure,
        seed=seed,
    )
    straight = _network_summary(run_network_experiment_straight(spec))

    experiment = NetworkExperiment(spec)
    midpoint = (experiment.total_cycles + experiment.now) // 2
    experiment.run_to(midpoint)
    with tempfile.TemporaryDirectory(dir=checkpoint_dir) as tmp:
        path = os.path.join(tmp, "network.ckpt")
        header = experiment.checkpoint(path)
        del experiment
        resumed_experiment = NetworkExperiment.resume(path, expect_spec=spec)
        checkpoint_bytes = header.payload_bytes
    resumed_from = resumed_experiment.now
    resumed = _network_summary(resumed_experiment.result())

    identical = straight == resumed
    return {
        "identical": identical,
        "num_nodes": num_nodes,
        "warmup_cycles": warmup,
        "measure_cycles": measure,
        "checkpoint_cycle": resumed_from,
        "checkpoint_bytes": checkpoint_bytes,
        "streams": straight["streams"],
        "delay_count": straight["delay_count"],
        "straight": straight,
        "resumed": resumed,
    }


def run_network_experiment_straight(
    spec: NetworkExperimentSpec,
) -> NetworkExperimentResult:
    """One uninterrupted reference run (kept separate for clarity)."""
    experiment = NetworkExperiment(spec)
    return experiment.result()


def run_ckpt_arena_identity_check(
    warmup: int = 1000,
    measure: int = 4000,
    topology: str = "mesh8x8",
    routing: str = "dimension_order",
    seed: int = 11,
    checkpoint_dir: Optional[str] = None,
) -> dict:
    """Network arena through a checkpoint, including mid-run flag flips.

    Same four-leg pattern as the columnar check, at the network level.
    The reference is the arena-off straight run; all four arena legs
    must reproduce its summary exactly:

    ``arena_straight``
        ``network_arena=True`` end to end.
    ``arena_resumed``
        Arena run checkpointed at the midpoint (with the network's link
        lanes holding in-flight flits), reloaded from disk, resumed with
        the arena on.  NumPy chunks are never pickled — the pool
        reallocates lazily at its persisted layout — so this proves the
        object graph carries the complete arena state.
    ``flip_off`` / ``flip_on``
        The arena checkpoint resumed with the arena disabled, and an
        arena-off checkpoint resumed with the arena enabled mid-run.
        Both splices must be bit-exact.
    """
    def make_spec(arena: bool) -> NetworkExperimentSpec:
        return NetworkExperimentSpec(
            target_link_load=0.3,
            best_effort_rate=0.5,
            warmup_cycles=warmup,
            measure_cycles=measure,
            seed=seed,
            topology=topology,
            routing=routing,
            network_arena=arena,
        )

    reference = _network_summary(run_network_experiment_straight(make_spec(False)))

    checkpoint_bytes = {}

    def _checkpointed(leg: str, arena: bool, flip: Optional[bool]) -> dict:
        spec = make_spec(arena)
        experiment = NetworkExperiment(spec)
        experiment.run_to((experiment.total_cycles + experiment.now) // 2)
        with tempfile.TemporaryDirectory(dir=checkpoint_dir) as tmp:
            path = os.path.join(tmp, "arena.ckpt")
            checkpoint_bytes[leg] = experiment.checkpoint(path).payload_bytes
            del experiment
            resumed = NetworkExperiment.resume(path, expect_spec=spec)
        if flip is not None:
            resumed.network.set_network_arena(flip)
        return _network_summary(resumed.result())

    legs = {
        "arena_straight": _network_summary(
            run_network_experiment_straight(make_spec(True))
        ),
    }
    for leg, arena, flip in (
        ("arena_resumed", True, None),
        ("flip_off", True, False),
        ("flip_on", False, True),
    ):
        legs[leg] = _checkpointed(leg, arena, flip)
    comparisons = {name: leg == reference for name, leg in legs.items()}
    return {
        "identical": all(comparisons.values()),
        **{f"{name}_identical": ok for name, ok in comparisons.items()},
        "topology": topology,
        "routing": routing,
        "warmup_cycles": warmup,
        "measure_cycles": measure,
        "checkpoint_bytes": checkpoint_bytes,
        "streams": reference["streams"],
        "delay_count": reference["delay_count"],
    }
