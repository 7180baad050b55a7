"""The one on-disk frame of every durable file: a magic line, a one-line
JSON header (keys sorted, carrying ``payload_sha256`` and
``payload_bytes``), then the payload.

Checkpoints (:mod:`repro.ckpt.codec`), result-store entries
(:mod:`repro.fabric.store`) and queued point specs
(:mod:`repro.fabric.queue`) differ only in their magic and their other
header fields; each keeps its schema tag and turns :class:`FrameError`
into its own typed error.  :func:`write_atomic` is the one place a file
is staged under a unique name beside its target and renamed into place
(the staging file is unlinked if either step raises; a killed writer's
is left for :func:`remove_staging`), and
:meth:`FrameReader.payload` is the one place a payload's length and
checksum are verified.  Opening a :class:`FrameReader` reads the header
only, so inspecting a file never touches its payload.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Any, Dict, Mapping, Optional


class FrameError(ValueError):
    """A framed file has the wrong magic, or is truncated or corrupt."""

    def __init__(self, path, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = str(path)
        self.reason = reason


def write_atomic(path, *chunks: bytes) -> None:
    """Write the concatenated ``chunks`` to ``path``: all or nothing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Unique per writer: two writers of one path never share a staging file.
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    try:
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_frame(
    path, magic: bytes, header: Mapping[str, Any], payload: bytes
) -> Dict[str, Any]:
    """Write ``payload`` framed by ``magic`` and ``header``; returns the
    header as written, with the payload's sha256 and byte count added."""
    record = dict(
        header,
        payload_sha256=hashlib.sha256(payload).hexdigest(),
        payload_bytes=len(payload),
    )
    line = json.dumps(record, sort_keys=True).encode("utf-8")
    write_atomic(path, magic, line, b"\n", payload)
    return record


def write_json(path, record: Any, indent: Optional[int] = None) -> None:
    """Write ``record`` as a JSON file (keys sorted) atomically."""
    text = json.dumps(record, indent=indent, sort_keys=True) + "\n"
    write_atomic(path, text.encode("utf-8"))


def remove_staging(directory, pattern: str = "**/*") -> int:
    """Delete the staging files that writers killed mid-write left under
    ``directory`` (``pattern`` picks the depth); returns how many."""
    removed = 0
    for tmp in Path(directory).glob(f"{pattern}.tmp-*"):
        try:
            tmp.unlink()
            removed += 1
        except OSError:
            pass
    return removed


class FrameReader:
    """A framed file opened for reading (a context manager): ``header``
    is parsed on open, the payload is read by :meth:`payload`.

    Opening raises :class:`FrameError` for a wrong magic line or a
    truncated or malformed header, and ``OSError`` as ``open`` does.
    """

    def __init__(self, path, magic: bytes) -> None:
        self.path = path
        self._handle = open(path, "rb")
        try:
            found = self._handle.read(len(magic))
            if found != magic:
                raise FrameError(path, f"bad magic {found!r}")
            line = self._handle.readline()
            if not line.endswith(b"\n"):
                raise FrameError(path, "truncated header")
            try:
                header = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise FrameError(path, f"header is not valid JSON ({exc})") from exc
            if not isinstance(header, dict):
                raise FrameError(path, "header is not a JSON object")
        except BaseException:
            self._handle.close()
            raise
        self.header: Dict[str, Any] = header

    def payload(self) -> bytes:
        """The rest of the file, verified against the header's length and sha256."""
        payload = self._handle.read()
        expected = self.header.get("payload_bytes")
        if len(payload) != expected:
            raise FrameError(
                self.path,
                f"payload is {len(payload)} bytes, header says {expected} "
                "— truncated or corrupt",
            )
        digest = hashlib.sha256(payload).hexdigest()
        expected = self.header.get("payload_sha256")
        if digest != expected:
            raise FrameError(
                self.path,
                f"payload sha256 checksum {digest} does not match header {expected}",
            )
        return payload

    def __enter__(self) -> "FrameReader":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._handle.close()
