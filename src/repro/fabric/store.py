"""Content-addressed result store (schema ``fabric-store/1``).

A sweep point's result is pure function of three things: the full
experiment specification, the code that ran it, and nothing else.  The
store makes that explicit — every entry is keyed on

    (config digest, code revision, point key)

where the config digest reuses :func:`repro.obs.manifest.config_digest`
(the same digest run manifests and checkpoint headers carry), the code
revision is the git commit hash, and the point key names the grid point.
Re-running an unchanged grid therefore recomputes **zero** points; change
one config field or check out a different revision and every affected
key misses — a stale hit is structurally impossible because staleness is
part of the address.

An entry file is a :mod:`repro.frame` file::

    MMR-RESULT\\n          magic line
    {...}\\n               JSON header (one line): schema, the full key,
                           payload sha256 + byte count, provenance
    <pickle blob>          {"result": ..., "manifest": ...}

Writes are atomic (:func:`repro.frame.write_atomic`), so a preempted
worker never leaves a truncated entry where a reusable one could live.
Reads verify magic, header, key echo, payload length and sha256 before
unpickling; every failure raises the typed :class:`StoreCorruptionError`.
:meth:`ResultStore.get` is the lenient worker-facing path: a corrupt
entry is deleted, counted in ``stats()["corrupt_dropped"]``, and
reported as a miss — recomputed, never silently reused.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..frame import FrameError, FrameReader, remove_staging, write_frame
from ..obs.manifest import build_manifest, config_digest, git_revision

#: First line of every store entry file.
MAGIC = b"MMR-RESULT\n"

#: Current store schema.  Bump when the entry layout changes incompatibly.
STORE_SCHEMA = "fabric-store/1"


class StoreError(RuntimeError):
    """Base class for result-store failures."""


class StoreCorruptionError(StoreError):
    """An entry is truncated, checksum-broken, or answers the wrong key.

    Callers must treat the entry as absent and recompute; :meth:`ResultStore.get`
    does exactly that (and deletes the file so the corruption cannot recur).
    """

    def __init__(self, path, reason: str) -> None:
        super().__init__(f"{path}: corrupt store entry — {reason}")
        self.path = str(path)
        self.reason = reason


@dataclass(frozen=True)
class ResultKey:
    """The full content address of one cached result."""

    #: ``config_digest(spec)`` of the producing experiment spec.
    config_digest: str
    #: Git commit hash of the producing code (``"unknown"`` outside a repo).
    code_revision: str
    #: Name of the grid point (the repr of its axis-value tuple).
    point_key: str

    def digest(self) -> str:
        """sha256 of the canonical key JSON — the entry's file name."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, str]:
        return {
            "config_digest": self.config_digest,
            "code_revision": self.code_revision,
            "point_key": self.point_key,
        }


def spec_key(spec: Any, point_key: str, revision: Optional[str] = None) -> ResultKey:
    """Build the store key for one (spec, point) pair.

    ``revision`` overrides the code revision (tests use this to prove a
    revision change misses); the default is the current git commit.
    """
    if revision is None:
        revision = git_revision() or "unknown"
    return ResultKey(
        config_digest=config_digest(spec),
        code_revision=revision,
        point_key=point_key,
    )


class ResultStore:
    """Filesystem-backed, content-addressed result cache.

    Safe for concurrent writers on a shared directory: entries are
    immutable once renamed into place, and two workers racing on the same
    key write byte-identical payloads (same spec, same revision, same
    seeded simulation) so last-rename-wins is harmless.
    """

    def __init__(self, root, revision: Optional[str] = None) -> None:
        self.root = Path(root)
        #: Code revision baked into every key this store builds.
        self.revision = revision or git_revision() or "unknown"
        self.hits = 0
        self.misses = 0
        self.corrupt_dropped = 0
        self.writes = 0

    # ----- keys and paths ----------------------------------------------------

    def key_for(self, spec: Any, point_key: str) -> ResultKey:
        """The content address of ``spec`` at this store's revision."""
        return spec_key(spec, point_key, self.revision)

    def path_for(self, key: ResultKey) -> Path:
        digest = key.digest()
        return self.root / digest[:2] / f"{digest}.res"

    # ----- write -------------------------------------------------------------

    def put(
        self,
        key: ResultKey,
        result: Any,
        manifest: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Store one result atomically; returns the entry path."""
        payload = pickle.dumps(
            {"result": result, "manifest": manifest},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        header = {
            "schema": STORE_SCHEMA,
            "key": key.to_dict(),
            "manifest": build_manifest(command="fabric.store.put"),
        }
        path = self.path_for(key)
        write_frame(path, MAGIC, header, payload)
        self.writes += 1
        return path

    # ----- read --------------------------------------------------------------

    def load(self, key: ResultKey) -> Tuple[Any, Optional[Dict[str, Any]]]:
        """Strict read: returns ``(result, manifest)`` or raises.

        Raises :class:`KeyError` when the entry does not exist and
        :class:`StoreCorruptionError` when it exists but cannot be
        trusted (bad magic, truncated header or payload, checksum
        mismatch, or a header that answers a different key).
        """
        path = self.path_for(key)
        try:
            with FrameReader(path, MAGIC) as frame:
                header = frame.header
                if header.get("schema") != STORE_SCHEMA:
                    raise StoreCorruptionError(
                        path,
                        f"schema {header.get('schema')!r}, this build reads "
                        f"{STORE_SCHEMA!r}",
                    )
                if header.get("key") != key.to_dict():
                    raise StoreCorruptionError(
                        path,
                        f"entry answers key {header.get('key')!r}, "
                        f"caller asked for {key.to_dict()!r}",
                    )
                payload = frame.payload()
        except FileNotFoundError:
            raise KeyError(key) from None
        except FrameError as exc:
            raise StoreCorruptionError(path, exc.reason) from exc
        try:
            record = pickle.loads(payload)
        except Exception as exc:
            raise StoreCorruptionError(
                path, f"payload failed to unpickle ({exc})"
            ) from exc
        if not isinstance(record, dict) or "result" not in record:
            raise StoreCorruptionError(
                path, f"payload is {type(record).__name__}, expected result dict"
            )
        return record["result"], record.get("manifest")

    def get(self, key: ResultKey) -> Optional[Tuple[Any, Optional[Dict[str, Any]]]]:
        """Lenient read: hit, or None on miss *and* on corruption.

        A corrupt entry is deleted (so the next writer replaces it),
        counted in ``corrupt_dropped``, and reported as a miss — the
        caller recomputes.  Silent reuse of a broken entry cannot happen:
        every code path that returns a result went through the full
        checksum + key verification of :meth:`load`.
        """
        try:
            entry = self.load(key)
        except KeyError:
            self.misses += 1
            return None
        except StoreCorruptionError:
            self.corrupt_dropped += 1
            self.misses += 1
            try:
                os.unlink(self.path_for(key))
            except OSError:
                pass
            return None
        self.hits += 1
        return entry

    # ----- accounting and maintenance ---------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Honest hit/miss accounting for gates and telemetry."""
        lookups = self.hits + self.misses
        return {
            "root": str(self.root),
            "revision": self.revision,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt_dropped": self.corrupt_dropped,
            "writes": self.writes,
            "hit_ratio": self.hits / lookups if lookups else 0.0,
        }

    def entries(self) -> int:
        """Number of entry files currently on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.res"))

    def gc(self, keep_revision: Optional[str] = None) -> Dict[str, int]:
        """Delete staging droppings and (optionally) other revisions' entries.

        ``keep_revision`` prunes every entry whose header names a
        different code revision — old revisions can never hit again, so
        their entries are pure disk weight.  Unreadable entries are
        dropped too (they would only ever be re-verified and recomputed).
        """
        removed_tmp = remove_staging(self.root, "*/*")
        removed_entries = 0
        if keep_revision is not None:
            for entry in self.root.glob("*/*.res"):
                try:
                    with FrameReader(entry, MAGIC) as frame:
                        key = frame.header.get("key") or {}
                    revision = key.get("code_revision")
                except (OSError, FrameError):
                    revision = None
                if revision != keep_revision:
                    try:
                        entry.unlink()
                        removed_entries += 1
                    except OSError:
                        pass
        return {"removed_tmp": removed_tmp, "removed_entries": removed_entries}
