"""Regeneration of the paper's Figures 3-5 (paper §5.2).

* Figure 3 — jitter vs offered load, fixed vs biased priorities, at 1/2
  candidates and 4/8 candidates.
* Figure 4 — delay (microseconds) vs offered load, same grid.
* Figure 5 — delay and jitter vs offered load for biased, fixed, DEC
  (Autonet) and the perfect switch, all at 8 candidates.

Figures 3 and 4 are two views of one experiment grid, so results are
cached per spec and shared.  Every run prints the series as a table (the
same rows the paper plots); the benchmark suite wraps these functions
with pytest-benchmark timing.

Run them through the command line (``repro figures``)::

    python -m repro figures fig3 [--full] [--jobs N]
    python -m repro figures all --full --jobs 4     # paper-scale cycles
    python -m repro figures all --out results/      # + JSON, CSV, summary.txt
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .report import format_series
from .single_router import ExperimentResult, ExperimentSpec, run_single_router_experiment

#: Offered-load axis (the paper sweeps roughly 10%..95%).
DEFAULT_LOADS: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.7, 0.8, 0.9, 0.95)

#: Quick profile: enough cycles for stable sub-saturation statistics.
QUICK_CYCLES = {"warmup_cycles": 5000, "measure_cycles": 20000}
#: Full profile: the paper's ~100k-cycle measurement window.
FULL_CYCLES = {"warmup_cycles": 20000, "measure_cycles": 100000}

_cache: Dict[ExperimentSpec, ExperimentResult] = {}

#: Optional persistent layer behind the memo: a content-addressed
#: :class:`repro.fabric.store.ResultStore`.  Off by default — figure
#: results only persist across invocations when the caller opts in via
#: :func:`enable_figure_cache` (CLI: ``--cache-dir=PATH``).
_store = None

#: Store point-key namespace for figure points (the spec's config digest
#: carries every parameter, so one constant key suffices).
_STORE_POINT_KEY = "figures"


def enable_figure_cache(directory, revision: Optional[str] = None):
    """Back the figure memo with a persistent content-addressed store.

    Results are keyed on ``(config digest, code revision)`` — rerunning
    ``repro figures`` with the same specs on the same commit is warm
    across invocations, while any spec or code change misses (the fabric
    store makes stale hits structurally impossible).  Returns the store
    so callers can read ``store.stats()``.
    """
    global _store
    from ..fabric.store import ResultStore

    _store = ResultStore(directory, revision=revision)
    return _store


def disable_figure_cache() -> None:
    """Detach the persistent layer (memo keeps working)."""
    global _store
    _store = None


def _store_fetch(spec: ExperimentSpec) -> Optional[ExperimentResult]:
    if _store is None:
        return None
    entry = _store.get(_store.key_for(spec, _STORE_POINT_KEY))
    return entry[0] if entry is not None else None


def _store_put(spec: ExperimentSpec, result: ExperimentResult) -> None:
    # Telemetry-enabled results hold a live recorder (closures over the
    # simulator) that must not be pickled; those stay memo-only.
    if _store is not None and result.recorder is None:
        _store.put(_store.key_for(spec, _STORE_POINT_KEY), result)


def run_point(spec: ExperimentSpec) -> ExperimentResult:
    """Run one experiment point, memoised on the full spec.

    With :func:`enable_figure_cache` active, the persistent store sits
    behind the memo: store hits skip the simulation entirely and fresh
    results are written through for the next invocation.
    """
    result = _cache.get(spec)
    if result is None:
        result = _store_fetch(spec)
        if result is None:
            result = run_single_router_experiment(spec)
            _store_put(spec, result)
        _cache[spec] = result
    return result


def clear_cache() -> None:
    """Drop memoised results (tests use this for isolation)."""
    _cache.clear()


def prime_cache(specs: Iterable[ExperimentSpec], jobs: int = 1) -> None:
    """Run not-yet-memoised specs, optionally over worker processes.

    Figure points are independent simulations, so ``jobs=N`` fans them
    out with :class:`ProcessPoolExecutor`; results land in the same memo
    cache :func:`run_point` reads, making the benchmark figures embarrass-
    ingly parallel without touching the figure-assembly code.  When the
    persistent figure cache is enabled, store hits are resolved first
    and only the remainder is computed (then written through).
    """
    pending = [spec for spec in dict.fromkeys(specs) if spec not in _cache]
    if _store is not None:
        remaining = []
        for spec in pending:
            result = _store_fetch(spec)
            if result is not None:
                _cache[spec] = result
            else:
                remaining.append(spec)
        pending = remaining
    if not pending:
        return
    if jobs <= 1 or len(pending) == 1:
        for spec in pending:
            result = run_single_router_experiment(spec)
            _store_put(spec, result)
            _cache[spec] = result
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
        for spec, result in zip(
            pending, pool.map(run_single_router_experiment, pending)
        ):
            _store_put(spec, result)
            _cache[spec] = result


@dataclass
class FigureData:
    """One figure's series, ready for tabulation or plotting."""

    title: str
    x_label: str
    xs: List[float]
    series: Dict[str, List[float]] = field(default_factory=dict)

    def table(self, precision: int = 3) -> str:
        """The figure as an aligned text table."""
        return format_series(self.title, self.x_label, self.xs, self.series, precision)


def _cycles(full: bool) -> dict:
    return FULL_CYCLES if full else QUICK_CYCLES


def _grid_specs(
    loads: Sequence[float],
    combos: Iterable[Tuple[str, str, int]],
    full: bool,
    seed: int,
) -> Dict[Tuple[str, str, int, float], ExperimentSpec]:
    cycles = _cycles(full)
    specs = {}
    for scheduler, priority, candidates in combos:
        for load in loads:
            specs[(scheduler, priority, candidates, load)] = ExperimentSpec(
                target_load=load,
                scheduler=scheduler,
                priority=priority,
                candidates=candidates,
                seed=seed,
                **cycles,
            )
    return specs


def _series_label(priority: str, candidates: int) -> str:
    return f"{candidates}C {priority}"


def _fig34_grid(
    loads: Sequence[float],
    candidates: Sequence[int],
    full: bool,
    seed: int,
    jobs: int = 1,
) -> Dict[Tuple[str, str, int, float], ExperimentResult]:
    combos = [
        ("greedy", priority, c) for priority in ("biased", "fixed") for c in candidates
    ]
    specs = _grid_specs(loads, combos, full, seed)
    prime_cache(specs.values(), jobs)
    return {key: run_point(spec) for key, spec in specs.items()}


def figure3(
    loads: Sequence[float] = DEFAULT_LOADS,
    candidates: Sequence[int] = (1, 2, 4, 8),
    full: bool = False,
    seed: int = 1,
    jobs: int = 1,
) -> FigureData:
    """Jitter vs offered load for fixed and biased priorities."""
    results = _fig34_grid(loads, candidates, full, seed, jobs)
    data = FigureData(
        title="Figure 3: Jitter vs Offered Load (flit cycles), 1.24 Gb links",
        x_label="load",
        xs=list(loads),
    )
    for c in candidates:
        for priority in ("biased", "fixed"):
            data.series[_series_label(priority, c)] = [
                results[("greedy", priority, c, load)].mean_jitter_cycles
                for load in loads
            ]
    return data


def figure4(
    loads: Sequence[float] = DEFAULT_LOADS,
    candidates: Sequence[int] = (1, 2, 4, 8),
    full: bool = False,
    seed: int = 1,
    jobs: int = 1,
) -> FigureData:
    """Delay (microseconds) vs offered load for fixed and biased."""
    results = _fig34_grid(loads, candidates, full, seed, jobs)
    data = FigureData(
        title="Figure 4: Delay vs Offered Load (microseconds), 1.24 Gb links",
        x_label="load",
        xs=list(loads),
    )
    for c in candidates:
        for priority in ("biased", "fixed"):
            data.series[_series_label(priority, c)] = [
                results[("greedy", priority, c, load)].mean_delay_us
                for load in loads
            ]
    return data


#: The four algorithms Figure 5 compares, all with 8 candidates.
FIGURE5_VARIANTS: Tuple[Tuple[str, str, str], ...] = (
    ("biased", "greedy", "biased"),
    ("fixed", "greedy", "fixed"),
    ("DEC", "dec", "fixed"),
    ("perfect", "perfect", "biased"),
)


def figure5(
    loads: Sequence[float] = DEFAULT_LOADS,
    full: bool = False,
    seed: int = 1,
    candidates: int = 8,
    jobs: int = 1,
) -> Tuple[FigureData, FigureData]:
    """Delay and jitter vs load: biased, fixed, DEC, perfect (8 candidates)."""
    cycles = _cycles(full)
    prime_cache(
        (
            ExperimentSpec(
                target_load=load,
                scheduler=scheduler,
                priority=priority,
                candidates=candidates,
                seed=seed,
                **cycles,
            )
            for _, scheduler, priority in FIGURE5_VARIANTS
            for load in loads
        ),
        jobs,
    )
    delay = FigureData(
        title="Figure 5a: Delay vs Offered Load (microseconds), 8 candidates",
        x_label="load",
        xs=list(loads),
    )
    jitter = FigureData(
        title="Figure 5b: Jitter vs Offered Load (flit cycles), 8 candidates",
        x_label="load",
        xs=list(loads),
    )
    for label, scheduler, priority in FIGURE5_VARIANTS:
        delays, jitters = [], []
        for load in loads:
            spec = ExperimentSpec(
                target_load=load,
                scheduler=scheduler,
                priority=priority,
                candidates=candidates,
                seed=seed,
                **cycles,
            )
            result = run_point(spec)
            delays.append(result.mean_delay_us)
            jitters.append(result.mean_jitter_cycles)
        delay.series[label] = delays
        jitter.series[label] = jitters
    return delay, jitter
