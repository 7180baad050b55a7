"""Checkpoint identity oracles for the perf gate.

Run a gated scenario straight through, run it again with a
checkpoint-at-midpoint / restore / resume in the middle, and require the
delivered-flit streams and statistics to be *equal*, not approximately
equal.  A checkpoint subsystem that loses so much as one RNG draw or
event-queue tiebreak shows up here as a stream mismatch.

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
        target_load, seed, delivered=straight_delivered
    )
    connections = len(router.connection_stats)
    sim.run(cycles)
    router.check_invariants()
    straight_stats = dict(router.stats.scalars)

    midpoint = cycles // 2
    delivered: List[DeliveryRecord] = []
    sim, router = build_saturated_scenario(target_load, seed, delivered=delivered)
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
