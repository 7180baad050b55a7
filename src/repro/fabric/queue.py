"""Filesystem-backed distributed work queue (schema ``fabric-queue/2``).

A submitted sweep explodes into one **point spec** file per grid point;
any worker that can see the directory — another process, another host on
a shared filesystem — claims points, runs them, and pushes result
markers.  All coordination is plain files with atomic primitives
(``O_EXCL`` create, ``os.replace``), so there is no broker, no daemon
and nothing to install on a cluster beyond this package.

Directory layout under a fabric directory::

    queue.json            submission manifest (grid digest, kind, axes)
    points/<id>.spec      one pickled (key, spec) pair per grid point, in
                          a :mod:`repro.frame` file (magic ``MMR-POINT``)
    leases/<id>.lease     live claim: JSON {worker, pid, host, heartbeat}
    results/<id>.json     completion marker referencing the result store
    ckpt/<id>.ckpt        the point's periodic checkpoint (resume source)
    events.jsonl          append-only log (lease breaks, requeues)
    store/                default :class:`~repro.fabric.store.ResultStore`

Lease protocol:

* **claim** — create ``leases/<id>.lease`` with ``O_CREAT | O_EXCL``;
  exactly one creator succeeds.
* **heartbeat** — the owner periodically rewrites the lease (staged and
  renamed into place) with a fresh timestamp, after verifying it still
  owns it (a worker that lost its lease must abandon the point, not
  fight).
* **expiry / requeue** — a lease whose heartbeat is older than its TTL
  belongs to a dead or preempted worker.  A claimer *breaks* it by
  atomically renaming it aside (two racers: one wins the rename, the
  loser sees FileNotFoundError and retries the claim), logs the break to
  ``events.jsonl``, then competes for a fresh ``O_EXCL`` create.  The
  requeued point resumes from ``ckpt/<id>.ckpt`` — its latest
  checkpoint — rather than cycle 0.

The queue is deliberately crash-dumb: every transition is one atomic
rename or exclusive create, and every state can be re-derived by listing
the directory, so a SIGKILL at any instant leaves nothing to repair.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import socket
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..frame import FrameReader, remove_staging, write_frame, write_json
from ..obs.manifest import build_manifest, config_digest

#: ``fabric-queue/2``: point specs are framed files (magic, header with
#: length and checksum, then the pickle); ``fabric-queue/1`` wrote bare
#: pickles, which this build refuses to read.
QUEUE_SCHEMA = "fabric-queue/2"
#: First line of every point-spec file.
POINT_MAGIC = b"MMR-POINT\n"
RESULT_MARKER_SCHEMA = "fabric-result/1"


class FabricError(RuntimeError):
    """Base class for fabric queue failures."""


class FabricSubmissionError(FabricError):
    """The directory already holds a different sweep's queue."""


def resolve_runner(kind: str) -> Callable[..., Any]:
    """The per-point runner for a submission kind.

    The submission manifest names the runner by its experiment kind
    (:func:`~repro.harness.resumable.experiment_kinds`), so a worker on
    another host, which only sees the directory, resolves the same
    per-point experiment function.
    """
    from ..harness.resumable import experiment_kinds

    kinds = experiment_kinds()
    if kind not in kinds:
        raise FabricError(f"unknown runner kind {kind!r}; known: {sorted(kinds)}")
    return kinds[kind].runner()


def runner_kind(runner: Callable[..., Any]) -> str:
    """Map a known runner callable back to its submission kind."""
    from ..harness.resumable import experiment_kinds

    kinds = experiment_kinds()
    for kind, experiment in kinds.items():
        if experiment.runner() is runner:
            return kind
    raise FabricError(
        f"runner {runner!r} has no fabric kind; fabric sweeps support "
        f"{sorted(kinds)} (module-level experiment runners)"
    )


@dataclass(frozen=True)
class Fabric:
    """Policy for running a sweep on the distributed fabric.

    Passed to ``run_sweep(fabric=...)``.  ``directory`` is the shared
    coordination directory; everything else tunes the lease protocol and
    caching.  ``lease_ttl`` must comfortably exceed the longest gap
    between worker heartbeats (``heartbeat_every``) or live workers get
    their points stolen.
    """

    directory: "Path | str"
    #: Seconds without a heartbeat before a lease counts as dead.
    lease_ttl: float = 60.0
    #: Heartbeat period of a healthy worker.
    heartbeat_every: float = 5.0
    #: Per-point checkpoint period (cycles) while computing.
    checkpoint_every: int = 10000
    #: Result store root (defaults to ``directory/store``).  Point a
    #: fleet of sweeps at one shared store to share their cache.
    store_dir: Optional["Path | str"] = None
    #: Code-revision override for the store key (tests only).
    revision: Optional[str] = None
    #: Seconds between scans while waiting on other workers' leases.
    poll: float = 0.2

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {self.lease_ttl}")
        if self.checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {self.checkpoint_every}"
            )

    @property
    def store_root(self) -> Path:
        return Path(self.store_dir) if self.store_dir else Path(self.directory) / "store"


def point_id(key: Tuple[Any, ...]) -> str:
    """Stable, filesystem-safe id for one grid point's key tuple."""
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:12]
    human = re.sub(r"[^A-Za-z0-9.=_-]+", "_", "_".join(str(v) for v in key))
    return f"{human[:60]}-{digest}"


class FabricQueue:
    """One sweep's work queue rooted at a shared directory."""

    def __init__(self, directory, lease_ttl: float = 60.0) -> None:
        self.directory = Path(directory)
        self.lease_ttl = float(lease_ttl)
        self.points_dir = self.directory / "points"
        self.leases_dir = self.directory / "leases"
        self.results_dir = self.directory / "results"
        self.ckpt_dir = self.directory / "ckpt"
        self.manifest_path = self.directory / "queue.json"
        self.events_path = self.directory / "events.jsonl"

    # ----- submission --------------------------------------------------------

    @staticmethod
    def grid_digest(kind: str, points: Sequence[Tuple[Tuple[Any, ...], Any]]) -> str:
        """Digest identifying a submission: runner kind + every point spec."""
        hasher = hashlib.sha256(kind.encode("utf-8"))
        for key, spec in points:
            hasher.update(repr(key).encode("utf-8"))
            hasher.update(config_digest(spec).encode("utf-8"))
        return hasher.hexdigest()[:16]

    def submit(
        self,
        points: Sequence[Tuple[Tuple[Any, ...], Any]],
        kind: str,
        axes: Sequence[Any] = (),
        checkpoint_every: int = 10000,
    ) -> Dict[str, Any]:
        """Explode a sweep into point specs; idempotent for the same grid.

        Re-submitting the identical grid (same kind, same specs) is a
        no-op that returns the existing manifest — that is how a crashed
        driver re-attaches.  Submitting a *different* grid into a
        non-empty fabric directory raises
        :class:`FabricSubmissionError`: results markers from another
        sweep must never be misread as this one's.
        """
        resolve_runner(kind)  # an unknown kind raises FabricError
        digest = self.grid_digest(kind, points)
        existing = self.read_manifest()
        if existing is not None:
            if existing.get("grid_digest") == digest:
                return existing
            raise FabricSubmissionError(
                f"{self.directory} already holds sweep "
                f"{existing.get('grid_digest')} ({existing.get('points')} "
                f"points, kind {existing.get('kind')!r}); refusing to mix in "
                f"grid {digest} — submit to a fresh directory"
            )
        for path in (self.points_dir, self.leases_dir, self.results_dir, self.ckpt_dir):
            path.mkdir(parents=True, exist_ok=True)
        ids = []
        for key, spec in points:
            pid = point_id(key)
            ids.append(pid)
            blob = pickle.dumps(
                {"key": tuple(key), "spec": spec}, protocol=pickle.HIGHEST_PROTOCOL
            )
            write_frame(
                self.points_dir / f"{pid}.spec",
                POINT_MAGIC,
                {"schema": QUEUE_SCHEMA, "point_id": pid},
                blob,
            )
        manifest = {
            "schema": QUEUE_SCHEMA,
            "kind": kind,
            "grid_digest": digest,
            "points": len(points),
            "point_ids": ids,
            "axes": [
                {"name": axis.name, "values": list(axis.values), "target": axis.target}
                for axis in axes
            ],
            "checkpoint_every": int(checkpoint_every),
            "manifest": build_manifest(command="fabric.submit"),
        }
        write_json(self.manifest_path, manifest, indent=2)
        return manifest

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        """The submission manifest (None before any submission); one of
        another queue schema is refused by name."""
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except json.JSONDecodeError as exc:
            raise FabricError(f"{self.manifest_path}: corrupt queue manifest ({exc})")
        if manifest.get("schema") != QUEUE_SCHEMA:
            raise FabricError(
                f"{self.manifest_path}: queue schema {manifest.get('schema')!r}, "
                f"this build reads {QUEUE_SCHEMA!r} — resubmit the sweep to a "
                "fresh directory"
            )
        return manifest

    def require_manifest(self) -> Dict[str, Any]:
        manifest = self.read_manifest()
        if manifest is None:
            raise FabricError(
                f"{self.directory} holds no submitted sweep (no queue.json); "
                "run `repro fabric submit` first"
            )
        return manifest

    # ----- point access ------------------------------------------------------

    def point_ids(self) -> List[str]:
        return list(self.require_manifest()["point_ids"])

    def load_point(self, pid: str) -> Tuple[Tuple[Any, ...], Any]:
        """The (key, spec) pair of one grid point; an unreadable spec
        file raises :class:`FabricError` naming it."""
        path = self.points_dir / f"{pid}.spec"
        try:
            with FrameReader(path, POINT_MAGIC) as frame:
                record = pickle.loads(frame.payload())
            return record["key"], record["spec"]
        except Exception as exc:  # I/O, frame, unpickle or record shape
            raise FabricError(f"{path}: unreadable point spec ({exc!r})") from exc

    def checkpoint_path(self, pid: str) -> Path:
        return self.ckpt_dir / f"{pid}.ckpt"

    # ----- lease protocol ----------------------------------------------------

    def lease_path(self, pid: str) -> Path:
        return self.leases_dir / f"{pid}.lease"

    def read_lease(self, pid: str) -> Optional[Dict[str, Any]]:
        try:
            text = self.lease_path(pid).read_text(encoding="utf-8")
            return json.loads(text)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            # A torn read (claimer mid-write) — treat as present but
            # unreadable; expiry falls back to the file's mtime.
            return {}

    def lease_expired(self, pid: str) -> bool:
        """Whether the point's lease (if any) has outlived its TTL."""
        path = self.lease_path(pid)
        lease = self.read_lease(pid)
        if lease is None:
            return False
        heartbeat = lease.get("heartbeat_unix")
        if heartbeat is None:
            try:
                heartbeat = path.stat().st_mtime
            except OSError:
                return False
        ttl = lease.get("ttl", self.lease_ttl)
        return (time.time() - float(heartbeat)) > float(ttl)

    def _lease_payload(self, worker_id: str) -> bytes:
        now = time.time()
        record = {
            "schema": "fabric-lease/1",
            "worker": worker_id,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "acquired_unix": round(now, 3),
            "heartbeat_unix": round(now, 3),
            "ttl": self.lease_ttl,
        }
        return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")

    def try_claim(self, pid: str, worker_id: str) -> bool:
        """Attempt to acquire the point's lease; True when this worker won.

        An expired lease is broken first (rename-aside, logged to the
        event journal) and the freed slot re-contested with ``O_EXCL`` —
        under any interleaving of racing claimers exactly one wins.
        """
        path = self.lease_path(pid)
        for _ in range(8):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if not self.lease_expired(pid):
                    return False
                # Broken here or by a racing claimer: re-contest either way.
                self._break_lease(pid, broken_by=worker_id)
                continue
            with os.fdopen(fd, "wb") as handle:
                handle.write(self._lease_payload(worker_id))
            return True
        return False

    def _break_lease(self, pid: str, broken_by: str) -> bool:
        """Rename an expired lease aside and log the break; False when
        another breaker renamed it first."""
        path = self.lease_path(pid)
        stale = self.read_lease(pid) or {}
        aside = path.with_name(f"{path.name}.expired-{uuid.uuid4().hex[:8]}")
        try:
            os.replace(path, aside)
        except FileNotFoundError:
            return False
        try:
            os.unlink(aside)
        except OSError:
            pass
        self.log_event(
            "lease_expired",
            point=pid,
            dead_worker=stale.get("worker"),
            broken_by=broken_by,
        )
        return True

    def heartbeat(self, pid: str, worker_id: str) -> bool:
        """Refresh the lease timestamp; False when ownership was lost."""
        lease = self.read_lease(pid)
        if not lease or lease.get("worker") != worker_id:
            return False
        lease["heartbeat_unix"] = round(time.time(), 3)
        write_json(self.lease_path(pid), lease)
        return True

    def release(self, pid: str, worker_id: str) -> None:
        """Drop the lease (only if still owned by ``worker_id``)."""
        lease = self.read_lease(pid)
        if lease is not None and lease.get("worker") == worker_id:
            try:
                os.unlink(self.lease_path(pid))
            except OSError:
                pass

    # ----- results -----------------------------------------------------------

    def result_path(self, pid: str) -> Path:
        return self.results_dir / f"{pid}.json"

    def has_result(self, pid: str) -> bool:
        return self.result_path(pid).exists()

    def write_result(self, pid: str, marker: Dict[str, Any]) -> None:
        record = {"schema": RESULT_MARKER_SCHEMA, "point_id": pid, **marker}
        write_json(self.result_path(pid), record, indent=2)

    def read_result(self, pid: str) -> Dict[str, Any]:
        return json.loads(self.result_path(pid).read_text(encoding="utf-8"))

    # ----- status / events / gc ----------------------------------------------

    def log_event(self, event: str, **fields: Any) -> None:
        """Append one event line (lease breaks, requeues) to the journal."""
        record = {"event": event, "time_unix": round(time.time(), 3), **fields}
        with open(self.events_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def read_events(self) -> List[Dict[str, Any]]:
        try:
            lines = self.events_path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            return []
        events = []
        for line in lines:
            line = line.strip()
            if line:
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # torn tail line from a killed writer
        return events

    def status(self) -> Dict[str, Any]:
        """Queue depth, lease health and completion — one JSON-safe record."""
        manifest = self.require_manifest()
        ids = manifest["point_ids"]
        completed = [pid for pid in ids if self.has_result(pid)]
        leased_live: List[str] = []
        leased_expired: List[str] = []
        for pid in ids:
            if pid in completed:
                continue
            lease = self.read_lease(pid)
            if lease is None:
                continue
            (leased_expired if self.lease_expired(pid) else leased_live).append(pid)
        events = self.read_events()
        expiries = sum(1 for e in events if e.get("event") == "lease_expired")
        markers = [self.read_result(pid) for pid in completed]
        cached = sum(1 for marker in markers if marker.get("cached"))
        resumed = sum(
            1
            for marker in markers
            if (marker.get("checkpoint") or {}).get("resumed_from_cycle") is not None
        )
        return {
            "schema": "fabric-status/1",
            "directory": str(self.directory),
            "kind": manifest["kind"],
            "grid_digest": manifest["grid_digest"],
            "points": len(ids),
            "completed": len(completed),
            "cached": cached,
            "resumed": resumed,
            "queue_depth": len(ids) - len(completed),
            "leases_live": leased_live,
            "leases_expired": leased_expired,
            "lease_expiries_logged": expiries,
            "complete": len(completed) == len(ids),
        }

    def gc(self) -> Dict[str, Any]:
        """Clear expired leases and staging droppings; report what went."""
        broken = []
        for pid in self.point_ids():
            if self.lease_expired(pid) and self._break_lease(pid, broken_by="gc"):
                broken.append(pid)
        return {
            "expired_leases_cleared": broken,
            "removed_tmp": remove_staging(self.directory),
        }
