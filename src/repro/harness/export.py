"""Artefact export: figure series as JSON and CSV, the flit trace as JSON.

A reproduction is only useful if its numbers leave the process: this
module serialises figure series so EXPERIMENTS.md (and downstream
analysis) can be regenerated mechanically.  A run's result is encoded by
its experiment kind's ``summary`` (``repro run --json``) and a recorder's
by :meth:`~repro.obs.FlightRecorder.summary` / ``export``.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, Mapping, TextIO

from ..obs import FlightRecorder, validate_chrome_trace
from .figures import FigureData


def write_trace_json(recorder: FlightRecorder, stream: TextIO) -> None:
    """Serialise a recorder's flit trace as Chrome trace-event JSON.

    The payload is schema-checked before writing, so a file this function
    produced is known to load in Perfetto / ``chrome://tracing``.
    """
    payload = recorder.chrome_trace()
    validate_chrome_trace(payload)
    json.dump(payload, stream)
    stream.write("\n")


def figure_to_dict(figure: FigureData) -> Dict[str, Any]:
    """A JSON-safe record of one figure's series."""
    return {
        "title": figure.title,
        "x_label": figure.x_label,
        "xs": list(figure.xs),
        "series": {name: list(values) for name, values in figure.series.items()},
    }


def write_figure_json(figure: FigureData, stream: TextIO) -> None:
    """Serialise one figure as JSON."""
    json.dump(figure_to_dict(figure), stream, indent=2, sort_keys=True)
    stream.write("\n")


def write_figure_csv(figure: FigureData, stream: TextIO) -> None:
    """Serialise one figure as CSV (x column + one column per curve)."""
    writer = csv.writer(stream)
    names = list(figure.series)
    writer.writerow([figure.x_label] + names)
    for i, x in enumerate(figure.xs):
        writer.writerow([x] + [figure.series[name][i] for name in names])


def figure_from_dict(payload: Mapping[str, Any]) -> FigureData:
    """Rebuild a :class:`FigureData` from :func:`figure_to_dict` output."""
    return FigureData(
        title=str(payload["title"]),
        x_label=str(payload["x_label"]),
        xs=[float(x) for x in payload["xs"]],
        series={
            str(name): [float(v) for v in values]
            for name, values in dict(payload["series"]).items()
        },
    )


def round_trip_figure(figure: FigureData) -> FigureData:
    """JSON round trip (used by tests to prove losslessness)."""
    buffer = io.StringIO()
    write_figure_json(figure, buffer)
    return figure_from_dict(json.loads(buffer.getvalue()))
