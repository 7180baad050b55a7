"""Simulation kernel: cycle/event engine, deterministic RNG, statistics."""

from .engine import Simulator
from .events import Event, EventQueue
from .rng import SeededRng, substream_seed
from .stats import (
    ConnectionStats,
    Histogram,
    RunningStats,
    StatsRegistry,
    TimeWeightedStats,
)

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "SeededRng",
    "substream_seed",
    "ConnectionStats",
    "Histogram",
    "RunningStats",
    "StatsRegistry",
    "TimeWeightedStats",
]
