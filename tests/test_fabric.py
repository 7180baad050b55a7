"""Tests for the distributed sweep fabric: the content-addressed result
store (corruption and staleness semantics), the lease-file work queue
(claims, heartbeats, crash requeue), and the end-to-end worker path
(dead-worker takeover with checkpoint resume, identical to serial)."""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.core.config import RouterConfig
from repro.fabric import (
    Fabric,
    FabricError,
    FabricQueue,
    FabricSubmissionError,
    FabricWorker,
    ResultStore,
    StoreCorruptionError,
    collect_sweep,
    spec_key,
    submit_sweep,
)
from repro.harness.single_router import (
    ExperimentSpec,
    SimulatedWorkerCrash,
    run_single_router_experiment,
)
from repro.harness.sweep import SweepAxis, _run_point, run_sweep, sweep_points

TINY = RouterConfig(num_ports=4, vcs_per_port=32, enforce_round_budgets=False)

METRICS = ("mean_delay_cycles", "mean_jitter_cycles", "utilisation")


def tiny_spec(**overrides):
    base = dict(
        target_load=0.4,
        config=TINY,
        candidates=4,
        seed=3,
        warmup_cycles=300,
        measure_cycles=1500,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def tiny_fabric(tmp_path, **overrides):
    base = dict(
        directory=tmp_path / "fabric",
        lease_ttl=30.0,
        checkpoint_every=500,
        revision="rev-a",
    )
    base.update(overrides)
    return Fabric(**base)


def disk_full(*args, **kwargs):
    raise OSError(28, "No space left on device")


class TestResultStore:
    def test_put_get_roundtrip_with_manifest(self, tmp_path):
        store = ResultStore(tmp_path, revision="rev-a")
        key = store.key_for(tiny_spec(), "(3,)")
        store.put(key, {"value": 42}, {"who": "test"})
        result, manifest = store.get(key)
        assert result == {"value": 42}
        assert manifest == {"who": "test"}
        assert store.stats()["hits"] == 1
        assert store.stats()["writes"] == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path, revision="rev-a")
        assert store.get(store.key_for(tiny_spec(), "(3,)")) is None
        assert store.stats()["misses"] == 1

    def test_config_change_misses_never_stale_hit(self, tmp_path):
        store = ResultStore(tmp_path, revision="rev-a")
        store.put(store.key_for(tiny_spec(), "(3,)"), "old", None)
        changed = store.key_for(tiny_spec(target_load=0.5), "(3,)")
        assert store.get(changed) is None
        # The original is untouched and still hits.
        assert store.get(store.key_for(tiny_spec(), "(3,)"))[0] == "old"

    def test_revision_change_misses_never_stale_hit(self, tmp_path):
        old = ResultStore(tmp_path, revision="rev-a")
        old.put(old.key_for(tiny_spec(), "(3,)"), "old", None)
        new = ResultStore(tmp_path, revision="rev-b")
        assert new.get(new.key_for(tiny_spec(), "(3,)")) is None
        assert new.stats()["misses"] == 1 and new.stats()["hits"] == 0

    def test_truncated_entry_raises_typed_error(self, tmp_path):
        store = ResultStore(tmp_path, revision="rev-a")
        key = store.key_for(tiny_spec(), "(3,)")
        path = store.put(key, list(range(100)), None)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(StoreCorruptionError, match="truncated"):
            store.load(key)

    def test_bad_sha_raises_typed_error(self, tmp_path):
        store = ResultStore(tmp_path, revision="rev-a")
        key = store.key_for(tiny_spec(), "(3,)")
        path = store.put(key, "payload", None)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptionError, match="sha256"):
            store.load(key)

    def test_bad_magic_raises_typed_error(self, tmp_path):
        store = ResultStore(tmp_path, revision="rev-a")
        key = store.key_for(tiny_spec(), "(3,)")
        path = store.put(key, "payload", None)
        path.write_bytes(b"NOT-A-STORE-ENTRY\n" + path.read_bytes())
        with pytest.raises(StoreCorruptionError, match="magic"):
            store.load(key)

    def test_get_drops_corrupt_entry_and_reports_miss(self, tmp_path):
        store = ResultStore(tmp_path, revision="rev-a")
        key = store.key_for(tiny_spec(), "(3,)")
        path = store.put(key, "payload", None)
        path.write_bytes(path.read_bytes()[:-3])
        assert store.get(key) is None
        assert store.stats()["corrupt_dropped"] == 1
        assert not path.exists()  # dropped, so the next put replaces it
        store.put(key, "recomputed", None)
        assert store.get(key)[0] == "recomputed"

    def test_failed_put_leaves_no_staging_file(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path, revision="rev-a")
        monkeypatch.setattr(os, "replace", disk_full)
        with pytest.raises(OSError, match="No space left"):
            store.put(store.key_for(tiny_spec(), "(3,)"), "payload", None)
        assert not list(tmp_path.rglob("*.tmp-*"))
        assert store.stats()["writes"] == 0

    def test_key_collision_detected(self, tmp_path):
        # An entry renamed to answer a different key must be rejected.
        store = ResultStore(tmp_path, revision="rev-a")
        key_a = store.key_for(tiny_spec(), "(3,)")
        key_b = store.key_for(tiny_spec(), "(4,)")
        path_a = store.put(key_a, "a", None)
        path_b = store.path_for(key_b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_a.rename(path_b)
        with pytest.raises(StoreCorruptionError, match="answers key"):
            store.load(key_b)

    def test_gc_prunes_other_revisions(self, tmp_path):
        old = ResultStore(tmp_path, revision="rev-a")
        old.put(old.key_for(tiny_spec(), "(3,)"), "old", None)
        new = ResultStore(tmp_path, revision="rev-b")
        new.put(new.key_for(tiny_spec(), "(3,)"), "new", None)
        assert new.entries() == 2
        report = new.gc(keep_revision="rev-b")
        assert report["removed_entries"] == 1
        assert new.entries() == 1
        assert new.get(new.key_for(tiny_spec(), "(3,)"))[0] == "new"


class TestFabricQueue:
    def _submit(self, tmp_path, axes=None):
        axes = axes or [SweepAxis("seed", (3, 4))]
        points = sweep_points(tiny_spec(), axes)
        queue = FabricQueue(tmp_path / "fabric")
        manifest = queue.submit(points, kind="single_router", axes=axes)
        return queue, points, manifest

    def test_submit_explodes_points(self, tmp_path):
        queue, points, manifest = self._submit(tmp_path)
        assert manifest["points"] == 2
        assert len(queue.point_ids()) == 2
        for pid, (key, spec) in zip(manifest["point_ids"], points):
            loaded_key, loaded_spec = queue.load_point(pid)
            assert loaded_key == key
            assert loaded_spec == spec

    def test_resubmit_same_grid_is_idempotent(self, tmp_path):
        queue, points, manifest = self._submit(tmp_path)
        again = queue.submit(points, kind="single_router")
        assert again["grid_digest"] == manifest["grid_digest"]

    def test_submit_different_grid_refused(self, tmp_path):
        queue, _, _ = self._submit(tmp_path)
        other = sweep_points(tiny_spec(), [SweepAxis("seed", (7, 8))])
        with pytest.raises(FabricSubmissionError, match="refusing to mix"):
            queue.submit(other, kind="single_router")

    def test_claim_is_exclusive(self, tmp_path):
        queue, _, manifest = self._submit(tmp_path)
        pid = manifest["point_ids"][0]
        assert queue.try_claim(pid, "worker-a")
        assert not queue.try_claim(pid, "worker-b")
        queue.release(pid, "worker-a")
        assert queue.try_claim(pid, "worker-b")

    def test_release_requires_ownership(self, tmp_path):
        queue, _, manifest = self._submit(tmp_path)
        pid = manifest["point_ids"][0]
        assert queue.try_claim(pid, "worker-a")
        queue.release(pid, "worker-b")  # not the owner: no-op
        assert not queue.try_claim(pid, "worker-b")

    def test_expired_lease_is_broken_and_logged(self, tmp_path):
        queue, _, manifest = self._submit(tmp_path)
        queue.lease_ttl = 0.05
        pid = manifest["point_ids"][0]
        assert queue.try_claim(pid, "dead-worker")
        time.sleep(0.1)
        assert queue.lease_expired(pid)
        assert queue.try_claim(pid, "rescue-worker")
        events = queue.read_events()
        assert any(
            e["event"] == "lease_expired" and e["dead_worker"] == "dead-worker"
            for e in events
        )

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        queue, _, manifest = self._submit(tmp_path)
        queue.lease_ttl = 0.3
        pid = manifest["point_ids"][0]
        assert queue.try_claim(pid, "worker-a")
        for _ in range(3):
            time.sleep(0.15)
            assert queue.heartbeat(pid, "worker-a")
            assert not queue.lease_expired(pid)

    def test_heartbeat_detects_lost_ownership(self, tmp_path):
        queue, _, manifest = self._submit(tmp_path)
        pid = manifest["point_ids"][0]
        assert queue.try_claim(pid, "worker-a")
        queue.release(pid, "worker-a")
        assert queue.try_claim(pid, "worker-b")
        assert not queue.heartbeat(pid, "worker-a")

    def test_failed_write_leaves_no_staging_file(self, tmp_path, monkeypatch):
        queue, _, manifest = self._submit(tmp_path)
        monkeypatch.setattr(os, "replace", disk_full)
        with pytest.raises(OSError, match="No space left"):
            queue.write_result(manifest["point_ids"][0], {"cached": False})
        assert not list(tmp_path.rglob("*.tmp-*"))

    def test_truncated_point_spec_raises_fabric_error(self, tmp_path):
        queue, _, manifest = self._submit(tmp_path)
        pid = manifest["point_ids"][0]
        path = queue.points_dir / f"{pid}.spec"
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FabricError, match=re.escape(str(path))):
            queue.load_point(pid)

    def test_previous_queue_schema_is_refused_by_name(self, tmp_path):
        """A ``fabric-queue/1`` directory holds bare pickled specs."""
        queue, _, _ = self._submit(tmp_path)
        manifest = json.loads(queue.manifest_path.read_text())
        manifest["schema"] = "fabric-queue/1"
        queue.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(FabricError, match="fabric-queue/1"):
            queue.require_manifest()

    def test_status_counts(self, tmp_path):
        queue, _, manifest = self._submit(tmp_path)
        pid = manifest["point_ids"][0]
        queue.write_result(pid, {"key": [3], "cached": False})
        status = queue.status()
        assert status["points"] == 2
        assert status["completed"] == 1
        assert status["queue_depth"] == 1
        assert not status["complete"]


class TestFabricEndToEnd:
    def test_cold_run_matches_serial_and_warm_rerun_hits(self, tmp_path):
        axes = [SweepAxis("seed", (3, 4))]
        serial = run_sweep(tiny_spec(), axes)
        fabric = tiny_fabric(tmp_path)
        cold = run_sweep(tiny_spec(), axes, fabric=fabric)
        assert cold.rows(METRICS) == serial.rows(METRICS)
        for manifest in cold.manifests.values():
            assert manifest["fabric"]["cached"] is False

        warm_fabric = tiny_fabric(
            tmp_path, directory=tmp_path / "fabric2", store_dir=fabric.store_root
        )
        warm = run_sweep(tiny_spec(), axes, fabric=warm_fabric)
        assert warm.rows(METRICS) == serial.rows(METRICS)
        for manifest in warm.manifests.values():
            assert manifest["fabric"]["cached"] is True

    def test_fabric_excludes_jobs_and_checkpointing(self, tmp_path):
        from repro.harness.sweep import Checkpointing

        fabric = tiny_fabric(tmp_path)
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_sweep(tiny_spec(), [SweepAxis("seed", (3,))], jobs=2, fabric=fabric)
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_sweep(
                tiny_spec(),
                [SweepAxis("seed", (3,))],
                checkpointing=Checkpointing(directory=tmp_path / "ck", every=100),
                fabric=fabric,
            )

    def test_dead_worker_requeue_resumes_from_checkpoint(self, tmp_path):
        """The ISSUE's acceptance drill, in-process: a worker dies
        mid-point after checkpointing (lease left behind, never
        released), a second worker breaks the expired lease, resumes
        the point from its checkpoint, and the grid is identical to a
        serial run."""
        axes = [SweepAxis("seed", (3, 4))]
        serial = run_sweep(tiny_spec(), axes)
        fabric = tiny_fabric(tmp_path, checkpoint_every=400)
        points = sweep_points(tiny_spec(), axes)
        submit_sweep(fabric, points, run_single_router_experiment, axes=tuple(axes))
        queue = FabricQueue(fabric.directory, lease_ttl=fabric.lease_ttl)
        victim = queue.point_ids()[0]
        victim_key, victim_spec = queue.load_point(victim)

        # "Worker A": claims the point, checkpoints at 400/800/1200, dies
        # at cycle 1200 without releasing its lease (the hard-kill model
        # — SIGKILL leaves exactly this state behind).
        assert queue.try_claim(victim, "doomed-worker")
        with pytest.raises(SimulatedWorkerCrash):
            _run_point(
                victim_spec,
                run_single_router_experiment,
                checkpoint_path=str(queue.checkpoint_path(victim)),
                checkpoint_every=400,
                resume=True,
                crash_at_cycle=1200,
            )
        assert queue.checkpoint_path(victim).exists()

        # Backdate the dead lease instead of sleeping out a real TTL.
        lease_path = queue.lease_path(victim)
        lease = json.loads(lease_path.read_text())
        lease["heartbeat_unix"] = time.time() - 10 * fabric.lease_ttl
        lease_path.write_text(json.dumps(lease))
        assert queue.lease_expired(victim)

        # "Worker B": breaks the lease, resumes, finishes the grid.
        rescue = FabricWorker(fabric, worker_id="rescue-worker")
        rescue.drain_until_complete(timeout=120)
        marker = queue.read_result(victim)
        assert marker["worker"] == "rescue-worker"
        assert marker["checkpoint"]["resumed_from_cycle"] is not None
        assert marker["checkpoint"]["resumed_from_cycle"] > 0
        assert rescue.points_resumed >= 1
        events = queue.read_events()
        assert any(
            e["event"] == "lease_expired" and e["dead_worker"] == "doomed-worker"
            for e in events
        )

        result = collect_sweep(fabric, tuple(axes))
        assert result.rows(METRICS) == serial.rows(METRICS)

    def test_sigkilled_worker_process_is_resumed_by_another(self, tmp_path):
        """The same drill across processes: ``repro fabric work`` is
        SIGKILLed from outside once its first checkpoint is on disk, as a
        preempted host dies.  Its lease expires, a second worker breaks it
        and resumes from that checkpoint, and the grid equals serial."""
        import repro

        axes = [SweepAxis("seed", (3, 4))]
        spec = tiny_spec(measure_cycles=12_000)
        fabric = tiny_fabric(
            tmp_path, lease_ttl=2.0, heartbeat_every=0.5, checkpoint_every=2000
        )
        submit_sweep(
            fabric, sweep_points(spec, axes), run_single_router_experiment,
            axes=tuple(axes),
        )
        queue = FabricQueue(fabric.directory, lease_ttl=fabric.lease_ttl)
        checkpoints = [queue.checkpoint_path(pid) for pid in queue.point_ids()]
        src = os.path.dirname(os.path.dirname(repro.__file__))
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "fabric", "work",
                str(fabric.directory), "--ttl", "2", "--heartbeat-every", "0.5",
            ],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while not any(path.exists() for path in checkpoints):
                assert worker.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            worker.kill()
            worker.wait(timeout=30)
        assert worker.returncode == -signal.SIGKILL

        FabricWorker(fabric).drain_until_complete(timeout=120)
        assert queue.status()["lease_expiries_logged"] >= 1
        resumed = [
            queue.read_result(pid)["checkpoint"]["resumed_from_cycle"]
            for pid in queue.point_ids()
        ]
        assert any(cycle and cycle > 0 for cycle in resumed)
        rows = collect_sweep(fabric, tuple(axes)).rows(METRICS)
        assert rows == run_sweep(spec, axes).rows(METRICS)

    def test_corrupt_entry_recomputed_not_reused(self, tmp_path):
        axes = [SweepAxis("seed", (3, 4))]
        fabric = tiny_fabric(tmp_path)
        cold = run_sweep(tiny_spec(), axes, fabric=fabric)

        # Truncate one entry, then rerun through a fresh queue.
        store = ResultStore(fabric.store_root, revision=fabric.revision)
        victim_spec = sweep_points(tiny_spec(), axes)[0][1]
        victim_path = store.path_for(store.key_for(victim_spec, "(3,)"))
        victim_path.write_bytes(victim_path.read_bytes()[:20])

        rerun_fabric = tiny_fabric(
            tmp_path, directory=tmp_path / "fabric2", store_dir=fabric.store_root
        )
        submit_sweep(
            rerun_fabric,
            sweep_points(tiny_spec(), axes),
            run_single_router_experiment,
            axes=tuple(axes),
        )
        worker = FabricWorker(rerun_fabric)
        worker.drain_until_complete(timeout=120)
        assert worker.store.stats()["corrupt_dropped"] == 1
        assert worker.points_computed == 1  # exactly the truncated point
        assert worker.points_cached == 1
        rerun = collect_sweep(rerun_fabric, tuple(axes))
        assert rerun.rows(METRICS) == cold.rows(METRICS)

    def test_collect_recomputes_an_entry_lost_after_its_marker(self, tmp_path):
        axes = [SweepAxis("seed", (3, 4))]
        fabric = tiny_fabric(tmp_path)
        cold = run_sweep(tiny_spec(), axes, fabric=fabric)
        store = ResultStore(fabric.store_root, revision=fabric.revision)
        victim_spec = sweep_points(tiny_spec(), axes)[0][1]
        store.path_for(store.key_for(victim_spec, "(3,)")).unlink()

        again = collect_sweep(fabric, tuple(axes))
        assert again.rows(METRICS) == cold.rows(METRICS)
        assert store.get(store.key_for(victim_spec, "(3,)")) is not None
        assert again.manifests[(3,)]["fabric"]["cached"] is False

    def test_worker_telemetry_and_health_trail(self, tmp_path):
        axes = [SweepAxis("seed", (3,))]
        fabric = tiny_fabric(tmp_path)
        submit_sweep(
            fabric,
            sweep_points(tiny_spec(), axes),
            run_single_router_experiment,
            axes=tuple(axes),
        )
        worker = FabricWorker(fabric, worker_id="obs-worker")
        worker.drain_until_complete(timeout=120)
        trail_path = fabric.directory / "health" / "obs-worker.jsonl"
        assert trail_path.exists()
        from repro.obs.health import read_health

        snapshots = read_health(trail_path)
        assert snapshots
        last = snapshots[-1]
        assert "fabric.queue_depth" in last["channels"]
        assert "fabric.lease_expiries" in last["channels"]
        assert "fabric.cache_hit_ratio" in last["channels"]
        assert last["extra"]["worker"] == "obs-worker"
        assert last["extra"]["queue_depth"] == 0
        assert last["extra"]["store"]["writes"] == 1


class TestFigureStoreCache:
    def test_figures_cache_warm_across_invocations(self, tmp_path):
        from repro.harness import figures

        spec = tiny_spec()
        try:
            store = figures.enable_figure_cache(tmp_path / "figcache")
            first = figures.run_point(spec)
            assert store.stats() == {
                **store.stats(),
                "writes": 1,
                "hits": 0,
                "misses": 1,
            }
            figures.clear_cache()  # simulate a fresh process
            second = figures.run_point(spec)
            assert store.stats()["hits"] == 1
            assert store.stats()["writes"] == 1
            assert first.mean_delay_cycles == second.mean_delay_cycles
            assert first.mean_jitter_cycles == second.mean_jitter_cycles
        finally:
            figures.disable_figure_cache()
            figures.clear_cache()

    def test_prime_cache_resolves_store_hits_first(self, tmp_path):
        from repro.harness import figures

        specs = [tiny_spec(seed=3), tiny_spec(seed=4)]
        try:
            store = figures.enable_figure_cache(tmp_path / "figcache")
            figures.prime_cache([specs[0]])
            figures.clear_cache()
            figures.prime_cache(specs)
            assert store.stats()["hits"] == 1  # seed=3 from disk
            assert store.stats()["writes"] == 2  # seed=4 computed + stored
        finally:
            figures.disable_figure_cache()
            figures.clear_cache()

    def test_cache_off_by_default(self, tmp_path):
        from repro.harness import figures

        figures.clear_cache()
        spec = tiny_spec()
        figures.run_point(spec)
        # No store attached: nothing persisted anywhere.
        assert not list(tmp_path.iterdir())
        figures.clear_cache()
