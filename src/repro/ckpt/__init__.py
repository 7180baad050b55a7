"""Checkpoint/restore and deterministic replay.

The codec (:mod:`repro.ckpt.codec`) defines the versioned format inside
the :mod:`repro.frame` file frame; the experiment lifecycle
(:class:`repro.harness.resumable.Resumable`) decides *what* goes in a
checkpoint.  That a run resumed from the file equals one that never
stopped is tier-1's ``tests/test_ckpt.py::TestMidpointResumeFromDisk``.
"""

from .codec import (
    CKPT_SCHEMA,
    MAGIC,
    CheckpointCodec,
    CheckpointError,
    CheckpointFormatError,
    CheckpointHeader,
    CheckpointMismatchError,
    CheckpointSchemaError,
)

__all__ = [
    "CKPT_SCHEMA",
    "MAGIC",
    "CheckpointCodec",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointHeader",
    "CheckpointMismatchError",
    "CheckpointSchemaError",
]
