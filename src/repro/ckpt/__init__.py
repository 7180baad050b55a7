"""Checkpoint/restore and deterministic replay.

The codec (:mod:`repro.ckpt.codec`) defines the versioned on-disk format;
the experiment harnesses (``SingleRouterExperiment.checkpoint/resume``,
``NetworkExperiment.checkpoint/resume``) decide *what* goes in a
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
