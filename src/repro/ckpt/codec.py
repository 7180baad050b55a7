"""Versioned on-disk checkpoint format (schema :data:`CKPT_SCHEMA`).

A checkpoint file is a :mod:`repro.frame` file::

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

Loading verifies, in order: magic, header JSON, schema version, then —
when the caller says what it expects — producer kind, config digest and
spec digest, and only then the payload's length and checksum.  Each
failure raises a typed error naming both the found and the expected
value.
"""

from __future__ import annotations

import io
import os
import pickle
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from ..frame import FrameError, FrameReader, write_frame
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


@contextmanager
def _open_checkpoint(path) -> Iterator[Tuple[CheckpointHeader, FrameReader]]:
    """The schema-checked header of the checkpoint at ``path`` and its
    open frame; frame errors become :class:`CheckpointFormatError`."""
    try:
        with FrameReader(path, MAGIC) as frame:
            schema = frame.header.get("schema")
            if schema != CKPT_SCHEMA:
                raise CheckpointSchemaError(schema, CKPT_SCHEMA)
            try:
                header = CheckpointHeader(**frame.header)
            except TypeError as exc:
                raise CheckpointFormatError(
                    f"{path}: checkpoint header is malformed: {exc}"
                ) from exc
            yield header, frame
    except FrameError as exc:
        raise CheckpointFormatError(
            f"{exc.path}: not a readable checkpoint — {exc.reason}"
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
        spec: Any = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> CheckpointHeader:
        """Write ``components`` (a dict of named objects) as one checkpoint.

        The write is atomic (:func:`~repro.frame.write_atomic`), so a
        crash mid-write never leaves a truncated checkpoint where a
        resumable one used to be.  ``spec``, when given, is digested into
        the manifest as ``spec_digest``.  Returns the header that was
        written.
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
        if spec is not None:
            extra = {**(extra or {}), "spec_digest": config_digest(spec)}
        header = write_frame(
            path,
            MAGIC,
            {
                "schema": CKPT_SCHEMA,
                "kind": kind,
                "cycle": cycle,
                "seed": seed,
                "config_digest": config_digest(config) if config is not None else None,
                "sections": sections,
                "manifest": build_manifest(
                    seed=seed, command=f"ckpt.save[{kind}]", extra=extra
                ),
            },
            stream.getvalue(),
        )
        return CheckpointHeader(**header)

    @staticmethod
    def read_header(path: "os.PathLike[str] | str") -> CheckpointHeader:
        """Parse a checkpoint's header without unpickling its payload.

        Safe on files of unknown provenance — nothing in the payload is
        executed or even read past the header line.
        """
        with _open_checkpoint(path) as (header, _frame):
            return header

    @staticmethod
    def load(
        path: "os.PathLike[str] | str",
        *,
        expect_kind: Optional[str] = None,
        expect_config: Any = None,
        expect_spec: Any = None,
    ) -> Tuple[CheckpointHeader, Dict[str, Any]]:
        """Verify and unpickle a checkpoint; returns (header, components).

        ``expect_config`` may be a configuration object (digested with
        :func:`~repro.obs.manifest.config_digest`) or an already-computed
        digest string; ``expect_spec`` is digested the same way and
        compared with the manifest's ``spec_digest``.  A mismatch refuses
        the load naming both digests, before the payload is read.  A file
        whose manifest has no ``spec_digest`` passes the spec check; the
        caller compares the restored spec itself.
        """
        with _open_checkpoint(path) as (header, frame):
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
            found = header.manifest.get("spec_digest")
            if expect_spec is not None and found is not None:
                expected = config_digest(expect_spec)
                if found != expected:
                    raise CheckpointMismatchError("spec", found, expected)
            payload = frame.payload()
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
        return {
            **asdict(header),
            "path": str(path),
            "file_bytes": os.path.getsize(path),
            "sections": dict(
                sorted(header.sections.items(), key=lambda kv: -kv[1])
            ),
        }
