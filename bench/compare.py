"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py BASE.json NEW.json
    python3 bench/compare.py base1.json,base2.json,... new1.json,new2.json,...

Each side is one result file of ``run.py`` or several, comma-separated; with
several, a metric is judged on its median and its spread is the distance
between the quartiles as a share of the median.  One row per (workload,
end-to-end metric) says ``better``, ``same``, ``worse`` -- by more than the
bound BENCHMARK.json fixes -- or ``unresolved`` when the spread is wider than
that bound and the two sides overlap.  A second table lists the per-layer
changes, and any ``sim_digest`` that moved is flagged: a change that claims
only simulator speed is expected to hold it.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

DECLARATION = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: Not declared to the driver (it is 0 on a healthy run, and the driver gets
#: attempted/failed directly), but judged here: any increase is a regression.
OPS_FAILED = {"name": "ops_failed_ratio", "unit": "ratio", "better": "lower", "bound": 0.0}
#: Per-layer rows that moved by less than this are noise, not news.
LAYER_DELTA_SHOWN = 0.02


def load_side(argument: str) -> List[Dict[str, Any]]:
    return [json.loads(Path(name).read_text()) for name in argument.split(",")]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """How ``new`` stands against ``base`` for one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    if base_median:
        worsening = sign * (new_median - base_median) / abs(base_median)
    else:
        worsening = sign * (new_median - base_median)  # absolute, for a 0 base
    if max(spread(base), spread(new)) > bound > 0:
        # Too noisy to read off the medians -- unless the sides are disjoint.
        if all(sign * n < sign * b for n in new for b in base):
            return "better"
        if all(sign * n > sign * b for n in new for b in base):
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def samples(side: List[Dict[str, Any]], workload: str, section: str, name: str) -> List[float]:
    values = [
        result["workloads"][workload].get(section, {}).get(name)
        for result in side
        if workload in result["workloads"]
    ]
    return [v for v in values if v is not None]


def end_to_end_rows(base: List[Dict[str, Any]], new: List[Dict[str, Any]]) -> List[tuple]:
    rows = []
    for workload in (w["name"] for w in DECLARATION["workloads"]):
        for metric in DECLARATION["end_to_end"] + [OPS_FAILED]:
            b = samples(base, workload, "end_to_end", metric["name"])
            n = samples(new, workload, "end_to_end", metric["name"])
            if not b or not n:
                continue
            base_median, new_median = statistics.median(b), statistics.median(n)
            rows.append(
                (
                    workload,
                    metric["name"],
                    base_median,
                    new_median,
                    new_median / base_median if base_median else None,
                    metric["bound"],
                    verdict(b, n, metric["better"], metric["bound"]),
                )
            )
    return rows


def per_layer_rows(base: List[Dict[str, Any]], new: List[Dict[str, Any]]) -> List[tuple]:
    rows = []
    for workload in (w["name"] for w in DECLARATION["workloads"]):
        for metric in DECLARATION["per_layer"]:
            b = samples(base, workload, "per_layer", metric["name"])
            n = samples(new, workload, "per_layer", metric["name"])
            if not b or not n:
                continue
            base_median, new_median = statistics.median(b), statistics.median(n)
            if base_median == new_median:
                continue
            delta = (new_median - base_median) / abs(base_median) if base_median else None
            if delta is not None and abs(delta) < LAYER_DELTA_SHOWN:
                continue
            rows.append((workload, metric["name"], base_median, new_median, delta))
    return rows


def digest_changes(base: List[Dict[str, Any]], new: List[Dict[str, Any]]) -> List[str]:
    """Workloads whose digest differs between runs of one seed and size."""

    def digests(side: List[Dict[str, Any]]) -> Dict[tuple, set]:
        found: Dict[tuple, set] = {}
        for result in side:
            run = (result["provenance"]["seed"], result["provenance"]["scale"])
            for workload, record in result["workloads"].items():
                found.setdefault((workload,) + run, set()).add(record["sim_digest"])
        return found

    base_digests, new_digests = digests(base), digests(new)
    return [
        f"{workload} (seed {seed}, scale {scale})"
        for (workload, seed, scale), values in sorted(base_digests.items())
        if (workload, seed, scale) in new_digests
        and values != new_digests[(workload, seed, scale)]
    ]


def main(argv: Optional[List[str]] = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print(__doc__)
        return 2
    base, new = load_side(arguments[0]), load_side(arguments[1])

    print(f"{'workload':<20} {'metric':<24} {'base':>12} {'new':>12} "
          f"{'new/base':>9} {'bound':>6}  verdict")
    rows = end_to_end_rows(base, new)
    for workload, name, b, n, ratio, bound, judged in rows:
        shown = "-" if ratio is None else f"{ratio:.4f}"
        print(f"{workload:<20} {name:<24} {b:>12.6g} {n:>12.6g} {shown:>9} "
              f"{bound:>6.2f}  {judged}")

    layer_rows = per_layer_rows(base, new)
    print(f"\nper-layer changes of {LAYER_DELTA_SHOWN:.0%} or more "
          f"({len(layer_rows)} rows)")
    for workload, name, b, n, delta in layer_rows:
        shown = "-" if delta is None else f"{delta:+.1%}"
        print(f"{workload:<20} {name:<42} {b:>12.6g} {n:>12.6g} {shown:>8}")

    changed = digest_changes(base, new)
    print()
    for entry in changed:
        print(f"sim_digest CHANGED: {entry}")
    if not changed:
        print("sim_digest: unchanged wherever both sides ran the same seed and size")

    tally = {v: sum(row[6] == v for row in rows) for v in ("better", "same", "worse", "unresolved")}
    print(", ".join(f"{count} {name}" for name, count in tally.items()))
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
