"""Versioned on-disk checkpoint format (schema :data:`CKPT_SCHEMA`).

A checkpoint file is::

    MMR-CKPT\\n            magic line
    {...}\\n               JSON header (one line)
    <pickle stream>        the component names, then each component

The header carries everything needed to *identify* a checkpoint without
unpickling it — schema version, producer kind, simulation cycle, seed,
config digest and git revision (reusing the :mod:`repro.obs.manifest`
provenance machinery), a payload checksum, and the bytes each component
added to the stream for ``repro ckpt inspect``.  ``read_header`` never
touches the pickle stream, so inspecting an untrusted or corrupt file is
safe.

The payload is written by ONE pickler: a record of the component names,
then one record per component in that order.  A single pickler is
load-bearing: components share live references (the simulator's event
queue holds flits that also sit in VC buffers; routers share the network's
stats registry), and the pickler's memo, which survives from one record
to the next, preserves that sharing.  Restoring (one unpickler, the same
order) therefore rebuilds the exact object graph, which is what makes
resumed runs bit-identical to straight-through runs
(``tests/test_ckpt.py`` checks this).  Separate records are what let
``sections`` be read off the stream offsets instead of pickling every
component a second time.

Loading verifies, in order: magic, header JSON, schema version, payload
checksum, then — when the caller says what it expects — producer kind and
config digest.  Each failure raises a typed error naming both the found
and the expected value.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from ..obs.manifest import build_manifest, config_digest

#: First line of every checkpoint file.
MAGIC = b"MMR-CKPT\n"

#: Current checkpoint schema.  Bump the number when the file layout, the
#: header's required fields or the pickled graph change incompatibly.
#: ``ckpt/8``: the event queue is per-cycle lanes of ``Event`` objects
#: (no priority or sequence slot; ``queued`` instead) that a CBR source
#: re-files, and ``ConnectionStats`` / ``StatsRegistry`` carry pending
#: sample lists — so a ``ckpt/7`` file would restore a heap nothing
#: drains and statistics objects missing their slots.
#: ``ckpt/7``: offers and grants are plain tuples — ``Router`` lost its
#: shared empty offer lists and ``LinkScheduler`` its two selection-mode
#: flags, so a ``ckpt/6`` file would restore attributes nothing reads.
#: ``ckpt/6``: one engine — ``Simulator``, ``_Ticker``, ``Router``,
#: ``LinkScheduler`` and the three experiment specs lost the fields that
#: selected or fed the deleted engines, so a ``ckpt/5`` file would restore
#: objects carrying attributes nothing reads and specs that no longer
#: compare equal to the ones a harness builds.
#: ``ckpt/5``: the pickled graph changed shape for the per-hop budget —
#: ``ActivitySet`` holds a raw mask, each link end is one ``_LinkEnd`` whose
#: bound methods are the routers' handlers, ``_HostOutput`` carries its
#: consumer and ``Router.output_flits`` replaces the ``output<p>_flits``
#: scalars — so a ``ckpt/4`` file would restore objects missing slots.
#: ``ckpt/4``: the payload is a stream of records from one pickler (names,
#: then each component) where ``ckpt/3`` holds one pickled dict, and an
#: untouched ``VirtualChannel`` is stored as its constructor arguments.
#: (``ckpt/3``: which tickers sleep, since when, and the pending wakes are
#: simulator state (``Simulator._awake`` / ``_woken``, ``asleep_since``
#: and the ``ActivitySet.on_wake`` hooks); a ``ckpt/2`` file keeps them in
#: the network arena (or nowhere) and would resume with every router
#: asleep and unwakeable, so it is refused by name.  ``ckpt/2`` moved
#: in-flight flits and credits into ``Network._lanes``.)
CKPT_SCHEMA = "ckpt/8"


class CheckpointError(RuntimeError):
    """Base class for every checkpoint read/write failure."""


class CheckpointFormatError(CheckpointError):
    """The file is not a checkpoint, is truncated, or is corrupt."""


class CheckpointSchemaError(CheckpointError):
    """The checkpoint's schema version is not one this build can read."""

    def __init__(self, found: str, expected: str) -> None:
        super().__init__(
            f"unknown checkpoint schema {found!r}; this build reads "
            f"{expected!r} — the file was written by an incompatible version"
        )
        self.found = found
        self.expected = expected


class CheckpointMismatchError(CheckpointError):
    """The checkpoint was produced by a different configuration or kind."""

    def __init__(self, what: str, found: Any, expected: Any) -> None:
        super().__init__(
            f"checkpoint {what} mismatch: file has {found!r}, "
            f"caller expects {expected!r} — refusing to resume a different "
            "experiment"
        )
        self.what = what
        self.found = found
        self.expected = expected


@dataclass(frozen=True)
class CheckpointHeader:
    """The JSON header of one checkpoint file."""

    schema: str
    #: Producer tag (``"single_router"``, ``"network"``, ``"simulator"``).
    kind: str
    #: Simulation cycle at which the snapshot was taken.
    cycle: int
    #: Master seed of the checkpointed run (None when not applicable).
    seed: Optional[int]
    #: Digest of the producing configuration (``obs.manifest.config_digest``).
    config_digest: Optional[str]
    #: sha256 of the pickle payload, hex.
    payload_sha256: str
    payload_bytes: int
    #: Bytes each component added to the payload, in dump order: an object
    #: shared by two components counts toward the first one dumped, and
    #: the first also carries the names record, so the sizes sum to
    #: payload_bytes.
    sections: Dict[str, int] = field(default_factory=dict)
    #: Provenance (git revision, platform, timestamps — see build_manifest).
    manifest: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": self.schema,
                "kind": self.kind,
                "cycle": self.cycle,
                "seed": self.seed,
                "config_digest": self.config_digest,
                "payload_sha256": self.payload_sha256,
                "payload_bytes": self.payload_bytes,
                "sections": self.sections,
                "manifest": self.manifest,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "CheckpointHeader":
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckpointFormatError(
                f"checkpoint header is not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict) or "schema" not in record:
            raise CheckpointFormatError("checkpoint header lacks a schema tag")
        try:
            return cls(
                schema=record["schema"],
                kind=record.get("kind", "unknown"),
                cycle=int(record.get("cycle", -1)),
                seed=record.get("seed"),
                config_digest=record.get("config_digest"),
                payload_sha256=record.get("payload_sha256", ""),
                payload_bytes=int(record.get("payload_bytes", -1)),
                sections=dict(record.get("sections", {})),
                manifest=dict(record.get("manifest", {})),
            )
        except (TypeError, ValueError) as exc:
            raise CheckpointFormatError(
                f"checkpoint header is malformed: {exc}"
            ) from exc


class CheckpointCodec:
    """Reads and writes :data:`CKPT_SCHEMA` checkpoint files."""

    schema = CKPT_SCHEMA

    @staticmethod
    def save(
        path: "os.PathLike[str] | str",
        components: Mapping[str, Any],
        *,
        kind: str,
        cycle: int,
        seed: Optional[int] = None,
        config: Any = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> CheckpointHeader:
        """Write ``components`` (a dict of named objects) as one checkpoint.

        The write is atomic: the file is assembled beside ``path`` and
        moved into place, so a crash mid-write never leaves a truncated
        checkpoint where a resumable one used to be.  Returns the header
        that was written.
        """
        stream = io.BytesIO()
        pickler = pickle.Pickler(stream, protocol=pickle.HIGHEST_PROTOCOL)
        names = list(components)
        sections: Dict[str, int] = {}
        try:
            pickler.dump(names)
            start = 0
            for name in names:
                pickler.dump(components[name])
                end = stream.tell()
                sections[name] = end - start
                start = end
        except Exception as exc:
            raise CheckpointError(
                "checkpoint state is not picklable — a component holds a "
                f"closure, lambda, or open resource ({exc})"
            ) from exc
        payload = stream.getvalue()
        header = CheckpointHeader(
            schema=CheckpointCodec.schema,
            kind=kind,
            cycle=cycle,
            seed=seed,
            config_digest=config_digest(config) if config is not None else None,
            payload_sha256=hashlib.sha256(payload).hexdigest(),
            payload_bytes=len(payload),
            sections=sections,
            manifest=build_manifest(
                seed=seed, command=f"ckpt.save[{kind}]", extra=extra
            ),
        )
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique tmp name, as in ``ResultStore.put``: two writers of one
        # path must not share a half-written staging file.
        tmp = path.with_name(
            f"{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        try:
            with open(tmp, "wb") as handle:
                handle.write(MAGIC)
                handle.write(header.to_json().encode("utf-8"))
                handle.write(b"\n")
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return header

    @staticmethod
    def read_header(path: "os.PathLike[str] | str") -> CheckpointHeader:
        """Parse a checkpoint's header without unpickling its payload.

        Safe on files of unknown provenance — nothing in the payload is
        executed or even read past the header line.
        """
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            if magic != MAGIC:
                raise CheckpointFormatError(
                    f"{path}: not a checkpoint file (bad magic {magic!r})"
                )
            line = handle.readline()
        if not line.endswith(b"\n"):
            raise CheckpointFormatError(f"{path}: truncated checkpoint header")
        header = CheckpointHeader.from_json(line.decode("utf-8"))
        if header.schema != CheckpointCodec.schema:
            raise CheckpointSchemaError(header.schema, CheckpointCodec.schema)
        return header

    @staticmethod
    def load(
        path: "os.PathLike[str] | str",
        *,
        expect_kind: Optional[str] = None,
        expect_config: Any = None,
    ) -> Tuple[CheckpointHeader, Dict[str, Any]]:
        """Verify and unpickle a checkpoint; returns (header, components).

        ``expect_config`` may be a configuration object (digested with
        :func:`~repro.obs.manifest.config_digest`) or an already-computed
        digest string; a mismatch refuses the load naming both digests.
        """
        header = CheckpointCodec.read_header(path)
        if expect_kind is not None and header.kind != expect_kind:
            raise CheckpointMismatchError("kind", header.kind, expect_kind)
        if expect_config is not None:
            expected = (
                expect_config
                if isinstance(expect_config, str)
                else config_digest(expect_config)
            )
            if header.config_digest != expected:
                raise CheckpointMismatchError(
                    "config digest", header.config_digest, expected
                )
        with open(path, "rb") as handle:
            handle.read(len(MAGIC))
            handle.readline()
            payload = handle.read()
        if len(payload) != header.payload_bytes:
            raise CheckpointFormatError(
                f"{path}: payload is {len(payload)} bytes, header says "
                f"{header.payload_bytes} — truncated or corrupt"
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.payload_sha256:
            raise CheckpointFormatError(
                f"{path}: payload checksum {digest} does not match header "
                f"{header.payload_sha256} — corrupt checkpoint"
            )
        unpickler = pickle.Unpickler(io.BytesIO(payload))
        try:
            names = unpickler.load()
            if not isinstance(names, list):
                raise TypeError(
                    f"names record is {type(names).__name__}, expected list"
                )
            components = {name: unpickler.load() for name in names}
        except Exception as exc:
            raise CheckpointFormatError(
                f"{path}: payload failed to unpickle ({exc}) — written by an "
                "incompatible code revision?"
            ) from exc
        return header, components

    @staticmethod
    def inspect(path: "os.PathLike[str] | str") -> Dict[str, Any]:
        """A JSON-safe summary of a checkpoint (header only, no unpickle)."""
        header = CheckpointCodec.read_header(path)
        size = os.path.getsize(path)
        return {
            "path": str(path),
            "file_bytes": size,
            "schema": header.schema,
            "kind": header.kind,
            "cycle": header.cycle,
            "seed": header.seed,
            "config_digest": header.config_digest,
            "payload_bytes": header.payload_bytes,
            "payload_sha256": header.payload_sha256,
            "sections": dict(
                sorted(header.sections.items(), key=lambda kv: -kv[1])
            ),
            "manifest": header.manifest,
        }
