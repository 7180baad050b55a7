"""Fabric worker: claims queued points, runs them, pushes results.

A worker is the only fabric component that executes simulations.  Its
loop per point:

1. **claim** the point's lease (atomic create; expired leases of dead
   workers are broken and the point *requeued* — see
   :meth:`~repro.fabric.queue.FabricQueue.try_claim`);
2. **cache check** — the content-addressed store is consulted first; a
   hit publishes the stored result without running anything;
3. **compute** — a miss runs the point through the same
   :func:`repro.harness.sweep._run_point` the in-process sweep uses,
   with per-point checkpointing into the fabric's ``ckpt/`` directory
   and ``resume=True``, so a point requeued after a worker died mid-run
   restarts from its latest checkpoint, not cycle 0;
4. **publish** — result into the store, marker into ``results/``,
   lease released.

While computing, a daemon heartbeat thread refreshes the lease every
``Fabric.heartbeat_every`` seconds.  SIGKILL takes the thread down with
the process, so the lease goes stale by itself — exactly the signal the
requeue protocol keys on; no cleanup handler needs to survive the crash.

Workers emit fabric telemetry (``fabric.queue_depth``,
``fabric.lease_expiries``, ``fabric.cache_hit_ratio``) through a
:class:`~repro.obs.recorder.FlightRecorder` and append
:mod:`repro.obs.health` snapshots to a per-worker JSONL trail under the
fabric directory, so a fleet's progress is observable with the same
tooling as a single run.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..harness.sweep import SweepAxis, SweepResult, _run_point, sweep_points
from ..obs.health import HealthWriter, build_health_snapshot
from ..obs.recorder import FlightRecorder
from .queue import Fabric, FabricError, FabricQueue, resolve_runner, runner_kind
from .store import ResultStore


class FabricWorker:
    """One worker process draining a fabric queue.

    ``worker_id`` defaults to ``host-pid-random`` so two workers on one
    machine (or a fleet across machines) never collide.
    """

    def __init__(self, fabric: Fabric, worker_id: Optional[str] = None) -> None:
        self.fabric = fabric
        self.queue = FabricQueue(fabric.directory, lease_ttl=fabric.lease_ttl)
        self.store = ResultStore(fabric.store_root, revision=fabric.revision)
        self.worker_id = worker_id or (
            f"{os.uname().nodename}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        self.recorder = FlightRecorder(capacity=64, telemetry_capacity=256)
        self.health = HealthWriter(
            Path(fabric.directory) / "health" / f"{self.worker_id}.jsonl"
        )
        self.points_computed = 0
        self.points_cached = 0
        self.points_resumed = 0

    # ----- telemetry ---------------------------------------------------------

    def _sample_fabric_channels(self, queue_depth: int, expiries: int) -> None:
        now = time.time()
        self.recorder.sample("fabric.queue_depth", now, float(queue_depth))
        self.recorder.sample("fabric.lease_expiries", now, float(expiries))
        self.recorder.sample(
            "fabric.cache_hit_ratio", now, float(self.store.stats()["hit_ratio"])
        )

    def write_health(self, queue_depth: int) -> None:
        events = self.queue.read_events()
        expiries = sum(1 for e in events if e.get("event") == "lease_expired")
        self._sample_fabric_channels(queue_depth, expiries)
        snapshot = build_health_snapshot(
            cycle=self.points_computed + self.points_cached,
            recorder=self.recorder,
            extra={
                "worker": self.worker_id,
                "queue_depth": queue_depth,
                "lease_expiries": expiries,
                "points_computed": self.points_computed,
                "points_cached": self.points_cached,
                "points_resumed": self.points_resumed,
                "store": self.store.stats(),
            },
        )
        self.health.write(snapshot)

    # ----- point execution ---------------------------------------------------

    def _heartbeat_loop(self, pid: str, stop: threading.Event) -> None:
        while not stop.wait(self.fabric.heartbeat_every):
            if not self.queue.heartbeat(pid, self.worker_id):
                return  # lost ownership; the compute result will be discarded

    def process_point(self, pid: str, runner, checkpoint_every: int) -> Dict[str, Any]:
        """Run one claimed point to a published result marker.

        The caller holds the lease.  Returns the marker written.  Any
        exception releases the lease (the point stays requeueable); a
        SIGKILLed worker never reaches the release, and its lease expires.
        """
        key, spec = self.queue.load_point(pid)
        store_key = self.store.key_for(spec, repr(key))
        entry = self.store.get(store_key)
        cached = entry is not None
        if not cached:
            stop = threading.Event()
            threading.Thread(
                target=self._heartbeat_loop, args=(pid, stop), daemon=True
            ).start()
            try:
                result, manifest = _run_point(
                    spec,
                    runner,
                    checkpoint_path=str(self.queue.checkpoint_path(pid)),
                    checkpoint_every=checkpoint_every,
                    resume=True,
                )
            except Exception:
                stop.set()
                self.queue.release(pid, self.worker_id)
                raise
            finally:
                stop.set()
            stored = dict(manifest or {})
            if result.checkpoint is not None:
                stored["checkpoint"] = result.checkpoint
            self.store.put(store_key, result, stored or None)
            entry = (result, stored or None)
        lineage = (entry[1] or {}).get("checkpoint")
        marker = {
            "key": list(key),
            "store_key": store_key.to_dict(),
            "cached": cached,
            "worker": self.worker_id,
            "checkpoint": lineage,
        }
        self.queue.write_result(pid, marker)
        if cached:
            self.points_cached += 1
        else:
            self.points_computed += 1
            if lineage and lineage.get("resumed_from_cycle") is not None:
                self.points_resumed += 1
        self.queue.release(pid, self.worker_id)
        return marker

    # ----- draining ----------------------------------------------------------

    def run_once(self) -> Optional[str]:
        """Claim and finish one available point; None when none claimable.

        "Claimable" means: no result marker yet, and either unleased or
        leased by a worker whose heartbeat has expired.
        """
        manifest = self.queue.require_manifest()
        runner = resolve_runner(manifest["kind"])
        checkpoint_every = int(
            manifest.get("checkpoint_every", self.fabric.checkpoint_every)
        )
        ids = manifest["point_ids"]
        pending = [pid for pid in ids if not self.queue.has_result(pid)]
        for pid in pending:
            if not self.queue.try_claim(pid, self.worker_id):
                continue
            if self.queue.has_result(pid):  # finished while we were claiming
                self.queue.release(pid, self.worker_id)
                continue
            self.process_point(pid, runner, checkpoint_every)
            self.write_health(queue_depth=len(pending) - 1)
            return pid
        return None

    def drain(self, max_points: Optional[int] = None) -> int:
        """Process available points until none are claimable; count done."""
        done = 0
        while max_points is None or done < max_points:
            if self.run_once() is None:
                break
            done += 1
        return done

    def drain_until_complete(self, timeout: Optional[float] = None) -> int:
        """Drain, then wait out other workers' live leases until the queue
        is complete.  Expired leases are claimed (requeue) on each pass.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        done = self.drain()
        while True:
            status = self.queue.status()
            if status["complete"]:
                self.write_health(queue_depth=0)
                return done
            if deadline is not None and time.monotonic() > deadline:
                raise FabricError(
                    f"fabric queue incomplete after {timeout}s: "
                    f"{status['queue_depth']} of {status['points']} points "
                    f"pending, live leases: {status['leases_live']}"
                )
            time.sleep(self.fabric.poll)
            done += self.drain()


# ----- sweep integration -----------------------------------------------------


def submit_sweep(
    fabric: Fabric,
    points,
    runner,
    axes: Tuple[SweepAxis, ...] = (),
) -> Dict[str, Any]:
    """Explode a sweep onto the fabric queue (idempotent per grid)."""
    queue = FabricQueue(fabric.directory, lease_ttl=fabric.lease_ttl)
    return queue.submit(
        points,
        kind=runner_kind(runner),
        axes=axes,
        checkpoint_every=fabric.checkpoint_every,
    )


def collect_sweep(fabric: Fabric, axes: Tuple[SweepAxis, ...]) -> SweepResult:
    """Assemble a completed fabric queue into a :class:`SweepResult`.

    Results come out of the content-addressed store via each point's
    result marker; the marker's worker / cached / checkpoint facts merge
    into the sweep's manifests under ``"fabric"`` so provenance survives
    into reports.
    """
    queue = FabricQueue(fabric.directory, lease_ttl=fabric.lease_ttl)
    store = ResultStore(fabric.store_root, revision=fabric.revision)
    manifest = queue.require_manifest()
    sweep = SweepResult(tuple(axes))
    missing: List[str] = []
    for pid in manifest["point_ids"]:
        if not queue.has_result(pid):
            missing.append(pid)
            continue
        key, spec = queue.load_point(pid)
        store_key = store.key_for(spec, repr(key))
        entry = store.get(store_key)
        if entry is None:
            # Corrupt or vanished after the marker was written: recompute
            # synchronously (rewriting the marker) rather than fail the
            # whole grid.
            FabricWorker(fabric).process_point(
                pid,
                resolve_runner(manifest["kind"]),
                int(manifest.get("checkpoint_every", fabric.checkpoint_every)),
            )
            entry = store.get(store_key)
        marker = queue.read_result(pid)
        result, stored_manifest = entry
        sweep.results[key] = result
        merged = dict(stored_manifest or {})
        merged["fabric"] = {
            "worker": marker.get("worker"),
            "cached": marker.get("cached"),
            "point_id": pid,
            "store_key": marker.get("store_key"),
        }
        if marker.get("checkpoint") is not None:
            merged.setdefault("checkpoint", marker["checkpoint"])
        sweep.manifests[key] = merged
    if missing:
        raise FabricError(
            f"fabric queue {fabric.directory} incomplete: "
            f"{len(missing)} points without results (e.g. {missing[:3]})"
        )
    return sweep


def run_sweep_on_fabric(
    base,
    axes,
    fabric: Fabric,
    runner,
) -> SweepResult:
    """Drive one sweep through the fabric: submit, drain locally, collect.

    Other workers (other terminals, other hosts sharing the directory)
    may be draining the same queue concurrently; this call contributes a
    local worker and returns once *every* point has a result, whoever
    computed it.  Re-running the identical sweep is a pure warm-cache
    pass: the submission is idempotent and every point hits the store.
    """
    points = sweep_points(base, axes)
    submit_sweep(fabric, points, runner, axes=tuple(axes))
    worker = FabricWorker(fabric)
    worker.drain_until_complete()
    return collect_sweep(fabric, tuple(axes))
