"""Generic parameter sweeps over the single-router experiment.

The figure harness covers the paper's evaluation grid; this module covers
the *design-space* sweeps DESIGN.md's ablation index calls for — candidate
counts, round factors, VC counts, flit sizes — by generating spec grids
from a base spec plus per-axis overrides.

Sweep points are independent simulations, so :func:`run_sweep` can fan
them out over worker processes (``jobs=N``).  Each worker receives one
fully-built, seeded :class:`ExperimentSpec` and returns the picklable
part of the result; rows are identical to a serial run because nothing
about a point depends on execution order.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.config import RouterConfig
from .single_router import ExperimentResult, ExperimentSpec, run_single_router_experiment


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: its name and values.

    ``target`` says where the parameter lives: 'spec' for
    :class:`ExperimentSpec` fields, 'config' for :class:`RouterConfig`
    fields (applied with ``config.with_``).
    """

    name: str
    values: Tuple[Any, ...]
    target: str = "spec"

    def __post_init__(self) -> None:
        if self.target not in ("spec", "config"):
            raise ValueError(f"unknown axis target {self.target!r}")
        if not self.values:
            raise ValueError(f"axis {self.name} has no values")


class SweepPointError(RuntimeError):
    """One sweep point's experiment raised; names the failing point.

    Fully picklable across the process boundary: the axis assignment and
    the cause travel as plain strings rather than as the live exception
    chain (a worker-side traceback can reference unpicklable frames and
    would poison the future's result channel).

    ``completed`` carries the :class:`SweepResult` holding every point
    that finished before the failure (possibly empty) — hours of
    finished grid rows survive the crash instead of being discarded with
    the exception.  It is a plain attribute, deliberately outside
    ``__reduce__``: live results need not be picklable, and the error's
    cross-process contract stays ``(point, cause_repr)``.
    """

    def __init__(self, point: str, cause) -> None:
        cause_repr = cause if isinstance(cause, str) else repr(cause)
        super().__init__(f"sweep point [{point}] failed: {cause_repr}")
        self.point = point
        self.cause_repr = cause_repr
        self.completed: Optional["SweepResult"] = None

    def __reduce__(self):
        return (SweepPointError, (self.point, self.cause_repr))


@dataclass(frozen=True)
class Checkpointing:
    """Sweep checkpoint policy: where, how often, and whether to resume.

    Each sweep point checkpoints to its own file under ``directory``
    (named from the axis assignment plus a digest, so renamed values
    cannot collide).  With ``resume=True`` (the default) a rerun of the
    same sweep picks every point up from its latest checkpoint instead
    of recomputing from cycle 0 — this is how a crashed or preempted
    ``run_sweep`` is continued: just run it again.
    """

    directory: "Path | str"
    every: int
    resume: bool = True
    #: Test hook, forwarded to the runner: the first (non-resumed)
    #: attempt of every point raises once it passes this cycle.
    crash_at_cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.every <= 0:
            raise ValueError(f"checkpoint interval must be positive, got {self.every}")

    def point_path(self, key: Tuple[Any, ...]) -> Path:
        """The checkpoint file for one grid point (stable across runs):
        ``point-`` plus the fabric queue's id for ``key``."""
        from ..fabric.queue import point_id  # the fabric imports this module

        return Path(self.directory) / f"point-{point_id(key)}.ckpt"


@dataclass
class SweepResult:
    """All results of one sweep, keyed by the axis-value tuples."""

    axes: Tuple[SweepAxis, ...]
    results: Dict[Tuple[Any, ...], ExperimentResult] = field(default_factory=dict)
    #: Run manifests of telemetry-enabled points, merged across workers
    #: (parallel workers cannot ship the recorder itself — see
    #: :func:`_run_point`).
    manifests: Dict[Tuple[Any, ...], Dict[str, Any]] = field(default_factory=dict)

    def column(self, metric: str) -> Dict[Tuple[Any, ...], float]:
        """Extract one metric across the grid.

        ``metric`` is an attribute of :class:`ExperimentResult`
        (``mean_delay_us``, ``mean_jitter_cycles``, ``utilisation``, ...).
        """
        return {key: getattr(result, metric) for key, result in self.results.items()}

    def rows(self, metrics: Sequence[str]) -> List[List[Any]]:
        """Table rows: axis values followed by the requested metrics.

        Rows are ordered by the axis-value tuples themselves, not their
        string forms: numeric axes sort numerically (``(9,)`` before
        ``(10,)``), non-numeric values sort by string within their own
        group, and mixed-type axes never raise.
        """
        out = []
        for key in sorted(self.results, key=_point_sort_key):
            result = self.results[key]
            out.append(list(key) + [getattr(result, m) for m in metrics])
        return out


def _point_sort_key(key: Tuple[Any, ...]) -> Tuple[Tuple[int, float, str], ...]:
    """Type-stable comparator for grid keys.

    Each element maps to ``(type rank, numeric value, string value)`` so
    numbers compare numerically, everything else compares as text, and
    heterogeneous grids order deterministically without TypeError.
    """
    parts = []
    for value in key:
        if isinstance(value, bool):
            # bool is an int subclass but is a flag, not a magnitude.
            parts.append((1, float(value), ""))
        elif isinstance(value, (int, float)):
            parts.append((0, float(value), ""))
        else:
            parts.append((2, 0.0, str(value)))
    return tuple(parts)


def build_spec(base: ExperimentSpec, assignment: Mapping[str, Tuple[str, Any]]) -> ExperimentSpec:
    """Apply one grid point's axis assignment to the base spec."""
    spec_overrides = {
        name: value for name, (target, value) in assignment.items() if target == "spec"
    }
    config_overrides = {
        name: value for name, (target, value) in assignment.items() if target == "config"
    }
    spec = replace(base, **spec_overrides) if spec_overrides else base
    if config_overrides:
        spec = replace(spec, config=spec.config.with_(**config_overrides))
    return spec


def sweep_points(
    base: ExperimentSpec, axes: Sequence[SweepAxis]
) -> List[Tuple[Tuple[Any, ...], ExperimentSpec]]:
    """The sweep's full cartesian grid as ``(key, spec)`` pairs.

    Specs are built up-front (each carrying its own seed from the base
    spec) so parallel workers receive self-contained, picklable work
    items and the grid is identical for any ``jobs`` value.
    """
    points = []
    for values in itertools.product(*(axis.values for axis in axes)):
        assignment = {
            axis.name: (axis.target, value) for axis, value in zip(axes, values)
        }
        points.append((values, build_spec(base, assignment)))
    return points


def _describe_point(axes: Sequence[SweepAxis], key: Tuple[Any, ...]) -> str:
    return ", ".join(f"{axis.name}={value}" for axis, value in zip(axes, key))


def _run_point(
    spec: ExperimentSpec,
    runner: Callable[..., ExperimentResult],
    checkpoint_path: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    resume: bool = False,
    crash_at_cycle: Optional[int] = None,
) -> Tuple[ExperimentResult, Optional[Dict[str, Any]]]:
    """Worker body: run one point, split off the non-picklable recorder.

    The flight recorder holds simulator closures and trace rings, so it
    never crosses the process boundary; its JSON-safe manifest does, and
    the parent merges manifests into :attr:`SweepResult.manifests`.
    """
    if checkpoint_path is None:
        result = runner(spec)
    else:
        result = runner(
            spec,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            resume=resume,
            _crash_at_cycle=crash_at_cycle,
        )
    manifest = None
    if result.recorder is not None:
        manifest = dict(result.recorder.manifest)
        result.recorder = None
    return result, manifest


def run_sweep(
    base: ExperimentSpec,
    axes: Sequence[SweepAxis],
    jobs: int = 1,
    checkpointing: Optional[Checkpointing] = None,
    fabric=None,
    _runner: Callable[..., ExperimentResult] = run_single_router_experiment,
) -> SweepResult:
    """Run the full cartesian product of the axes over the base spec.

    ``jobs`` > 1 distributes points over that many worker processes.
    Rows are identical to a serial run (each point is an independent,
    self-seeded simulation); only wall-clock time changes.  A crashing
    point raises :class:`SweepPointError` naming its axis assignment,
    with every already-finished row attached as ``error.completed``.

    ``checkpointing`` makes every point write periodic checkpoints and —
    with ``resume=True`` — continue from its latest checkpoint when the
    sweep is rerun after a crash or preemption, instead of recomputing
    from cycle 0.  Each point's checkpoint lineage (path, resume cycle,
    checkpoints written) lands in :attr:`SweepResult.manifests` under
    ``"checkpoint"``.  Results are bit-identical with or without
    checkpointing (the checkpoint identity gate proves this).

    ``fabric`` — a :class:`repro.fabric.Fabric` — runs the sweep on the
    distributed fabric instead: points are submitted to the fabric
    directory's work queue, a local worker drains it alongside any other
    workers sharing the directory (other terminals, other hosts), and
    every result lands in the content-addressed store so an unchanged
    rerun recomputes zero points.  Mutually exclusive with ``jobs`` and
    ``checkpointing`` (the fabric checkpoints per point on its own).

    ``_runner`` is the per-point experiment function — overridable for
    tests (it must be a module-level callable so workers can unpickle it;
    with ``checkpointing`` it must accept the checkpoint keyword
    arguments of :func:`run_single_router_experiment`).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if fabric is not None:
        if jobs != 1 or checkpointing is not None:
            raise ValueError(
                "fabric= is mutually exclusive with jobs>1 and checkpointing "
                "(the fabric manages its own fan-out and per-point checkpoints)"
            )
        from ..fabric.worker import run_sweep_on_fabric

        return run_sweep_on_fabric(base, axes, fabric, _runner)
    points = sweep_points(base, axes)
    sweep = SweepResult(tuple(axes))

    def point_kwargs(key: Tuple[Any, ...]) -> Dict[str, Any]:
        if checkpointing is None:
            return {}
        return {
            "checkpoint_path": str(checkpointing.point_path(key)),
            "checkpoint_every": checkpointing.every,
            "resume": checkpointing.resume,
            "crash_at_cycle": checkpointing.crash_at_cycle,
        }

    def record(key: Tuple[Any, ...], outcome) -> None:
        result, manifest = outcome
        sweep.results[key] = result
        if manifest is not None:
            sweep.manifests[key] = manifest
        lineage = getattr(result, "checkpoint", None)
        if lineage is not None:
            sweep.manifests.setdefault(key, {})["checkpoint"] = lineage

    if jobs == 1 or len(points) <= 1:
        for key, spec in points:
            try:
                record(key, _run_point(spec, _runner, **point_kwargs(key)))
            except Exception as exc:
                error = SweepPointError(_describe_point(axes, key), exc)
                error.completed = sweep
                raise error from exc
        return sweep

    failed_key: Optional[Tuple[Any, ...]] = None
    cause: Optional[BaseException] = None
    with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
        futures = {
            key: pool.submit(_run_point, spec, _runner, **point_kwargs(key))
            for key, spec in points
        }
        for key, future in futures.items():
            try:
                record(key, future.result())
            except Exception as exc:
                # First failure: stop burning CPU on points that cannot
                # matter any more.  Queued futures cancel; already-running
                # stragglers finish when the pool exits and are harvested
                # below so their rows are not discarded.
                failed_key, cause = key, exc
                for pending in futures.values():
                    pending.cancel()
                break
    if failed_key is None:
        return sweep
    for key, future in futures.items():
        if key in sweep.results or future.cancelled():
            continue
        if future.done() and future.exception() is None:
            record(key, future.result())
    error = SweepPointError(_describe_point(axes, failed_key), cause)
    error.completed = sweep
    raise error from cause
