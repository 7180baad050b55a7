"""Tabular reporting for experiment sweeps.

Prints the same rows/series the paper's figures plot, as aligned text
tables — the benchmark harness pipes these to stdout so a reproduction run
leaves a readable record next to the timing numbers.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 3,
) -> str:
    """Render rows as an aligned text table.

    Floats are fixed to ``precision`` decimals; everything else is
    ``str()``-ed.  Columns are right-aligned (numeric convention).
    """
    rendered: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:.{precision}f}")
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [
        max(len(line[col]) for line in rendered)
        for col in range(len(rendered[0]))
    ]
    lines = []
    for i, cells in enumerate(rendered):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(cells, widths)))
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_series(
    title: str,
    x_label: str,
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    precision: int = 3,
) -> str:
    """Render one figure's data: an x column plus one column per curve."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [values[i] for values in series.values()])
    return f"{title}\n{format_table(headers, rows, precision)}"


def format_telemetry(snapshot: Mapping[str, Mapping[str, object]]) -> str:
    """Render a :meth:`TelemetryHub.snapshot` as an aligned channel table.

    One row per channel: whole-run sample count, mean/min/max, and how
    many samples fell off the ring (``dropped``).
    """
    if not snapshot:
        return "(no telemetry channels)"
    rows = []
    for name in sorted(snapshot):
        channel = snapshot[name]
        rows.append(
            [
                name,
                channel.get("count", 0),
                channel.get("mean", 0.0),
                channel.get("min") if channel.get("min") is not None else "-",
                channel.get("max") if channel.get("max") is not None else "-",
                channel.get("dropped", 0),
            ]
        )
    return format_table(
        ["channel", "samples", "mean", "min", "max", "dropped"], rows
    )


def format_kernel_profile(snapshot: Mapping[str, object]) -> str:
    """Render a :meth:`KernelProfiler.snapshot` as a per-ticker table."""
    lines = [
        "kernel: "
        f"stepped={snapshot.get('stepped_cycles', 0)} "
        f"fast_forwarded={snapshot.get('fast_forwarded_cycles', 0)} "
        f"(ratio {float(snapshot.get('fast_forward_ratio', 0.0)):.3f}, "
        f"{snapshot.get('fast_forward_spans', 0)} spans) "
        f"events={snapshot.get('events_fired', 0)}"
    ]
    tickers = snapshot.get("tickers") or []
    if tickers:
        rows = [
            [
                t.get("name", ""),
                t.get("ticks", 0),
                t.get("skipped_cycles", 0),
                t.get("skip_spans", 0),
                float(t.get("seconds", 0.0)) * 1e3,
            ]
            for t in tickers
        ]
        lines.append(
            format_table(
                ["ticker", "ticks", "skipped", "skip_spans", "wall_ms"], rows
            )
        )
    return "\n".join(lines)

