"""Smoke test of the benchmark itself (``pytest bench/``; not part of tier-1).

Drives the real command at a fiftieth of its size and checks the shape of
what comes out, not the numbers: those are only ever recorded at scale 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
DECLARATION = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in DECLARATION["end_to_end"]] + ["ops_failed_ratio"]
PER_LAYER = [m["name"] for m in DECLARATION["per_layer"]]


@pytest.fixture(scope="module")
def result_file(tmp_path_factory: pytest.TempPathFactory) -> Path:
    out = tmp_path_factory.mktemp("bench") / "result.json"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--scale", "0.02", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return out


@pytest.fixture(scope="module")
def workloads(result_file: Path) -> dict:
    return json.loads(result_file.read_text())["workloads"]


def test_every_workload_reports_every_end_to_end_metric(workloads: dict) -> None:
    assert list(workloads) == [w["name"] for w in DECLARATION["workloads"]]
    for name, record in workloads.items():
        assert not record["failures"], (name, record["failures"])
        for metric in END_TO_END:
            assert isinstance(record["end_to_end"][metric], (int, float)), (name, metric)


def test_every_per_layer_metric_is_a_number_or_listed_missing(workloads: dict) -> None:
    for name, record in workloads.items():
        assert set(record["per_layer"]) == set(PER_LAYER), name
        missing = " ".join(record["trace_missing"])
        for metric, value in record["per_layer"].items():
            if value is None:
                # No arena is installed by default; any other hole must be
                # explained by a hook target that no longer exists.
                layer = metric.rsplit(".", 1)[0]
                assert metric == "core.arena.tick_s" or layer in missing, (name, metric)


def test_layer_self_times_cover_the_timed_region(workloads: dict) -> None:
    for name, record in workloads.items():
        layers = dict(record["layer_self_s"])
        layers.pop("bench.timed_region", None)  # what no layer hook covers
        covered = sum(layers.values()) / record["traced_wall_s"]
        assert 0.95 <= covered <= 1.0 + 1e-9, (name, covered)


def test_comparing_a_file_with_itself_is_all_same(result_file: Path) -> None:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "compare.py"), str(result_file), str(result_file)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line for line in done.stdout.splitlines() if line.split()[-1:] == ["same"]]
    assert len(rows) == len(DECLARATION["workloads"]) * len(END_TO_END), done.stdout
    assert "0 better" in done.stdout and "0 worse" in done.stdout
    assert "0 unresolved" in done.stdout
