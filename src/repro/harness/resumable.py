"""One run/checkpoint/resume lifecycle for the three experiment kinds.

:class:`Resumable` is the base of
:class:`~repro.harness.single_router.SingleRouterExperiment`,
:class:`~repro.harness.network_experiment.NetworkExperiment` and
:class:`~repro.harness.churn.ChurnWorkload`, and owns their lifecycle:
``run_to`` with its warm-up boundary, ``done``, ``checkpoint``,
``resume`` and :meth:`Resumable.run`, the periodic-checkpoint loop behind
the three ``run_*`` functions.  A kind keeps what differs: its ``KIND``
tag, how it builds, what starting the measurement resets, its
:meth:`~Resumable.checkpoint_extra` header fields and its ``result``.

The kinds are also the one registry (:func:`experiment_kinds`) that the
command line, the sweep fabric and the sweeps read.  Each declares its
``SPEC`` class, its ``run_<KIND>_experiment`` entry point
(:meth:`Resumable.runner`), its default ``SWEEP_COLUMNS`` and its
``SUMMARY_FIELDS``.
"""

from __future__ import annotations

import sys
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Type

from ..ckpt.codec import (
    CheckpointCodec,
    CheckpointFormatError,
    CheckpointHeader,
    CheckpointMismatchError,
)
from ..obs import FlightRecorder, build_manifest


class SimulatedWorkerCrash(RuntimeError):
    """Test hook: a deliberately killed run (models a preempted worker)."""


class Resumable:
    """An experiment (``spec``, ``config``, ``sim``) that checkpoints as a
    whole object to one file and resumes from it bit-identically."""

    #: Checkpoint producer tag (header ``kind``).
    KIND = ""
    #: Spec fields copied into run and checkpoint manifests.
    MANIFEST_FIELDS: Tuple[str, ...] = ()
    #: The spec dataclass the kind runs.
    SPEC: type = object
    #: Summary fields a sweep of this kind tabulates by default.
    SWEEP_COLUMNS: Tuple[str, ...] = ()
    #: A result's summary: field name -> result attribute (dotted path).
    SUMMARY_FIELDS: Dict[str, str] = {}
    #: Whether the warm-up boundary has been crossed.  ``sim.now`` alone
    #: cannot tell: a checkpoint taken exactly at the boundary may be from
    #: just before or just after the reset.
    _measurement_started = False

    @classmethod
    def runner(cls) -> Callable[..., Any]:
        """The kind's module-level ``run_<KIND>_experiment`` entry point
        (sweep workers and fabric hosts resolve it by name)."""
        return getattr(sys.modules[cls.__module__], f"run_{cls.KIND}_experiment")

    @classmethod
    def summary(cls, result: Any) -> Dict[str, Any]:
        """``result``'s :attr:`SUMMARY_FIELDS`, in declaration order."""
        return {name: attrgetter(path)(result) for name, path in cls.SUMMARY_FIELDS.items()}

    @property
    def now(self) -> int:
        """Current simulation cycle."""
        return self.sim.now

    @property
    def warmup_cycles(self) -> int:
        """Cycles before the measurement starts."""
        return self.spec.warmup_cycles

    @property
    def total_cycles(self) -> int:
        """Warm-up plus measurement horizon."""
        return self.spec.warmup_cycles + self.spec.measure_cycles

    @property
    def done(self) -> bool:
        """Whether the run is over: at the horizon, unless overridden."""
        return self.sim.now >= self.total_cycles

    def _start_measurement(self) -> None:
        """Reset what the warm-up must not count (nothing, by default)."""

    def run_to(self, cycle: int) -> None:
        """Advance to absolute ``cycle`` (clamped to the horizon).

        Crossing the warm-up boundary starts the measurement exactly once,
        however the run is sliced across calls, checkpoints and resumes.
        """
        sim = self.sim
        target = min(int(cycle), self.total_cycles)
        if target < sim.now:
            raise ValueError(f"cannot run backwards to {target}, now is {sim.now}")
        warmup = self.warmup_cycles
        if sim.now < warmup:
            sim.run(min(target, warmup) - sim.now)
        if sim.now >= warmup and not self._measurement_started:
            self._measurement_started = True
            self._start_measurement()
        if target > sim.now:
            sim.run(target - sim.now)

    def close(self) -> None:
        """End the run's life: unhook the kernel (and, in a kind that has
        one, the network) so the finished graph frees by reference
        counting, with no collector pass.  The experiment stays
        readable; it can no longer run."""
        self.sim.close()

    @staticmethod
    def config_of(spec: Any) -> Any:
        """The configuration ``spec`` implies, if known without building
        (its digest is then checked before unpickling); else None."""
        return None

    @classmethod
    def manifest_fields(cls, spec: Any) -> Dict[str, Any]:
        return {name: getattr(spec, name) for name in cls.MANIFEST_FIELDS}

    @classmethod
    def build_recorder(cls, spec: Any, config: Any) -> Optional[FlightRecorder]:
        """The flight recorder ``spec.telemetry`` asks for, or None; its
        manifest names the ``run_<KIND>_experiment`` entry point."""
        if not spec.telemetry:
            return None
        return FlightRecorder(
            manifest=build_manifest(
                seed=spec.seed,
                config=config,
                command=f"run_{cls.KIND}_experiment",
                extra=cls.manifest_fields(spec),
            )
        )

    def checkpoint_extra(self) -> Dict[str, Any]:
        """Manifest fields of a checkpoint (``repro ckpt inspect --json``)."""
        return {
            **self.manifest_fields(self.spec),
            "measurement_started": self._measurement_started,
        }

    def checkpoint(self, path) -> CheckpointHeader:
        """Write the complete experiment state to ``path``."""
        return CheckpointCodec.save(
            path,
            {"experiment": self},
            kind=self.KIND,
            cycle=self.sim.now,
            seed=self.spec.seed,
            config=self.config,
            spec=self.spec,
            extra=self.checkpoint_extra(),
        )

    @classmethod
    def resume(cls, path, expect_spec: Any = None):
        """Reload a checkpointed experiment, verifying provenance.

        With ``expect_spec``, the header's config digest (where
        :meth:`config_of` knows one) and spec digest are checked before
        unpickling, and the restored spec must equal it: another point's
        checkpoint is refused, not silently blended.
        """
        _, components = CheckpointCodec.load(
            path,
            expect_kind=cls.KIND,
            expect_config=None if expect_spec is None else cls.config_of(expect_spec),
            expect_spec=expect_spec,
        )
        experiment = components.get("experiment")
        if not isinstance(experiment, cls):
            raise CheckpointFormatError(
                f"{path}: checkpoint does not contain a {cls.__name__}"
            )
        if expect_spec is not None and experiment.spec != expect_spec:
            raise CheckpointMismatchError("spec", experiment.spec, expect_spec)
        return experiment

    @classmethod
    def run(
        cls,
        spec: Any,
        *build_args: Any,
        checkpoint_every: Optional[int] = None,
        checkpoint_path=None,
        resume: bool = False,
        crash_at_cycle: Optional[int] = None,
        prepare: Optional[Callable[[Any], None]] = None,
    ):
        """Build ``cls(spec, *build_args)``, run it until done, summarise.

        ``checkpoint_every=N`` writes a checkpoint to ``checkpoint_path``
        every N cycles (atomically, latest wins); ``resume=True``
        continues from an existing checkpoint there instead of building,
        with bit-identical results.  ``crash_at_cycle`` is a test hook
        that raises :class:`SimulatedWorkerCrash` once the first,
        non-resumed run passes that cycle.  ``prepare`` is applied to the
        experiment before it runs.  A checkpointed run's result carries
        its lineage in ``result.checkpoint``.  The experiment is closed
        (:meth:`close`) once its result is taken, or on the way out of an
        error.
        """
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError(f"checkpoint_every must be positive, got {checkpoint_every}")
        checkpointed = checkpoint_every is not None or resume or crash_at_cycle is not None
        if checkpointed and checkpoint_path is None:
            raise ValueError("checkpointing requires a checkpoint_path")
        path = Path(checkpoint_path) if checkpointed else None
        resumed = resume and path.exists()
        if resumed:
            experiment = cls.resume(path, expect_spec=spec)
        else:
            experiment = cls(spec, *build_args)
        try:
            if prepare is not None:
                prepare(experiment)
            if not checkpointed:
                return experiment.result()
            lineage: Dict[str, Any] = {
                "schema": CheckpointCodec.schema,
                "path": str(path),
                "resumed_from_cycle": experiment.now if resumed else None,
                "checkpoints_written": 0,
            }
            total = experiment.total_cycles
            stride = checkpoint_every or total
            while not experiment.done:
                experiment.run_to(min(experiment.now + stride, total))
                if experiment.done:
                    break
                if checkpoint_every is not None:
                    header = experiment.checkpoint(path)
                    lineage["checkpoints_written"] += 1
                    lineage["last_checkpoint_cycle"] = header.cycle
                if (
                    crash_at_cycle is not None
                    and lineage["resumed_from_cycle"] is None
                    and crash_at_cycle <= experiment.now
                ):
                    raise SimulatedWorkerCrash(
                        f"worker killed at cycle {experiment.now} (test hook)"
                    )
            result = experiment.result()
            result.checkpoint = lineage
            return result
        finally:
            # The result is taken: nothing reads the live graph again.
            experiment.close()


def experiment_kinds() -> Dict[str, Type[Resumable]]:
    """The experiment-kind registry: each :class:`Resumable` kind by its
    ``KIND`` tag.  Imported on first call (the kinds import this module)."""
    from .churn import ChurnWorkload
    from .network_experiment import NetworkExperiment
    from .single_router import SingleRouterExperiment

    kinds = (SingleRouterExperiment, NetworkExperiment, ChurnWorkload)
    return {cls.KIND: cls for cls in kinds}
