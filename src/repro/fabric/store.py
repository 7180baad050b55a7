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

An entry file is::

    MMR-RESULT\\n          magic line
    {...}\\n               JSON header (one line): schema, the full key,
                           payload sha256 + byte count, provenance
    <pickle blob>          {"result": ..., "manifest": ...}

Writes are atomic (unique tmp beside the entry, then ``os.replace``; a
write that raises removes its tmp), so a preempted worker never leaves a
truncated entry where a reusable one could live.  Reads verify magic,
header, key echo, payload length and sha256 before unpickling; every
failure raises the typed :class:`StoreCorruptionError`.
:meth:`ResultStore.get` is the lenient worker-facing path: a corrupt
entry is deleted, counted in ``stats()["corrupt_dropped"]``, and
reported as a miss — recomputed, never silently reused.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

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
        canonical = json.dumps(
            {
                "config_digest": self.config_digest,
                "code_revision": self.code_revision,
                "point_key": self.point_key,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
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
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "manifest": build_manifest(command="fabric.store.put"),
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique tmp name: concurrent workers on a shared directory must
        # not clobber each other's half-written staging files.
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}")
        try:
            with open(tmp, "wb") as handle:
                handle.write(MAGIC)
                handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
                handle.write(b"\n")
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
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
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            raise KeyError(key) from None
        if not blob.startswith(MAGIC):
            raise StoreCorruptionError(path, f"bad magic {blob[:12]!r}")
        rest = blob[len(MAGIC):]
        newline = rest.find(b"\n")
        if newline < 0:
            raise StoreCorruptionError(path, "truncated header")
        try:
            header = json.loads(rest[:newline].decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorruptionError(path, f"header is not JSON ({exc})") from exc
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
        payload = rest[newline + 1:]
        if len(payload) != header.get("payload_bytes"):
            raise StoreCorruptionError(
                path,
                f"payload is {len(payload)} bytes, header says "
                f"{header.get('payload_bytes')} — truncated entry",
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("payload_sha256"):
            raise StoreCorruptionError(
                path,
                f"payload sha256 {digest} does not match header "
                f"{header.get('payload_sha256')}",
            )
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

    def contains(self, key: ResultKey) -> bool:
        """Whether a (possibly corrupt) entry file exists for ``key``."""
        return self.path_for(key).exists()

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
        removed_tmp = 0
        removed_entries = 0
        if not self.root.exists():
            return {"removed_tmp": 0, "removed_entries": 0}
        for tmp in self.root.glob("*/*.tmp-*"):
            try:
                tmp.unlink()
                removed_tmp += 1
            except OSError:
                pass
        if keep_revision is not None:
            for entry in self.root.glob("*/*.res"):
                try:
                    with open(entry, "rb") as handle:
                        handle.read(len(MAGIC))
                        header = json.loads(handle.readline().decode("utf-8"))
                    revision = (header.get("key") or {}).get("code_revision")
                except (OSError, ValueError, UnicodeDecodeError):
                    revision = None
                if revision != keep_revision:
                    try:
                        entry.unlink()
                        removed_entries += 1
                    except OSError:
                        pass
        return {"removed_tmp": removed_tmp, "removed_entries": removed_entries}
