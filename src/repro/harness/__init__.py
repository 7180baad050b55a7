"""Experiment harnesses: the paper's evaluation and design-space sweeps."""

from .figures import (
    DEFAULT_LOADS,
    FigureData,
    clear_cache,
    figure3,
    figure4,
    figure5,
    run_point,
)
from .churn import (
    ChurnResult,
    ChurnSpec,
    ChurnWorkload,
    run_churn_experiment,
)
from .report import format_series, format_table
from .single_router import (
    PAPER_CONFIG,
    ExperimentResult,
    ExperimentSpec,
    SimulatedWorkerCrash,
    SingleRouterExperiment,
    run_single_router_experiment,
)
from .export import (
    figure_to_dict,
    write_figure_csv,
    write_figure_json,
)
from .saturation import SaturationEstimate, find_saturation_load, is_saturated
from .sweep import (
    Checkpointing,
    SweepAxis,
    SweepPointError,
    SweepResult,
    build_spec,
    run_sweep,
)

__all__ = [
    "ChurnResult",
    "ChurnSpec",
    "ChurnWorkload",
    "run_churn_experiment",
    "DEFAULT_LOADS",
    "FigureData",
    "clear_cache",
    "figure3",
    "figure4",
    "figure5",
    "run_point",
    "format_series",
    "format_table",
    "PAPER_CONFIG",
    "ExperimentResult",
    "ExperimentSpec",
    "SimulatedWorkerCrash",
    "SingleRouterExperiment",
    "run_single_router_experiment",
    "Checkpointing",
    "SweepAxis",
    "SweepPointError",
    "SweepResult",
    "build_spec",
    "run_sweep",
    "figure_to_dict",
    "write_figure_csv",
    "write_figure_json",
    "SaturationEstimate",
    "find_saturation_load",
    "is_saturated",
]
