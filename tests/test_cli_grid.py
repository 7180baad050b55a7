"""The command line's one grid path and the experiment-kind registry.

Covers what the registry made uniform: the spec flags a ``--network``
grid takes (or refuses), per-point checkpoints for single-router sweeps,
the fabric's kind names, and ``repro figures --out``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.fabric
from repro import cli
from repro.fabric import FabricError, resolve_runner, runner_kind
from repro.harness.churn import run_churn_experiment
from repro.harness.export import write_figure_csv, write_figure_json
from repro.harness.figures import FigureData
from repro.harness.network_experiment import (
    NetworkExperimentSpec,
    run_network_experiment,
)
from repro.harness.resumable import experiment_kinds
from repro.harness.single_router import run_single_router_experiment
from repro.harness.sweep import sweep_points


class _Captured(Exception):
    pass


@pytest.fixture
def grids(monkeypatch):
    """Stub both grid sinks; collect the (kind, specs) each command builds."""
    built = []

    def run_sweep(base, axes, *args, _runner=None, **kwargs):
        built.append((runner_kind(_runner), [spec for _, spec in sweep_points(base, axes)]))
        raise _Captured

    def submit_sweep(fabric, points, runner, axes=()):
        built.append((runner_kind(runner), [spec for _, spec in points]))
        raise _Captured

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    monkeypatch.setattr(repro.fabric, "submit_sweep", submit_sweep)
    return built


#: The same network grid through ``repro sweep`` and ``repro fabric submit``.
_COMMANDS = {
    "sweep": ["sweep", "--network", "--axis", "target_link_load=0.1,0.2"],
    "fabric submit": [
        "fabric", "submit", "fabdir", "--network",
        "--axis", "target_link_load=0.1,0.2",
    ],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
class TestNetworkGridFlags:
    def test_priority_reaches_the_network_spec(self, grids, command, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(_Captured):
            cli.main(_COMMANDS[command] + ["--priority", "fixed"])
        kind, specs = grids[0]
        assert kind == "network"
        assert [spec.priority for spec in specs] == ["fixed", "fixed"]

    def test_takes_the_network_spec_cycle_defaults(self, grids, command,
                                                   tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(_Captured):
            cli.main(_COMMANDS[command])
        defaults = NetworkExperimentSpec(target_link_load=0.1)
        for spec in grids[0][1]:
            assert spec.warmup_cycles == defaults.warmup_cycles == 5000
            assert spec.measure_cycles == defaults.measure_cycles == 20000

    @pytest.mark.parametrize(
        "flag", [["--load", "0.5"], ["--scheduler", "dec"], ["--candidates", "4"]]
    )
    def test_single_router_flags_are_refused(self, grids, command, flag,
                                             tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(_COMMANDS[command] + flag) == 2
        assert flag[0] in capsys.readouterr().err
        assert grids == []


def test_network_flags_are_refused_without_network(grids, capsys):
    code = cli.main(["sweep", "--axis", "target_load=0.3", "--link-load", "0.2"])
    assert code == 2
    assert "--link-load" in capsys.readouterr().err
    assert grids == []


def test_single_router_sweep_checkpoints_and_resumes(tmp_path, monkeypatch, capsys):
    """``repro sweep --checkpoint-dir`` checkpoints every point; a rerun
    resumes each from its last checkpoint and prints the same rows."""
    sweeps = []
    real_run_sweep = cli.run_sweep

    def spy(*args, **kwargs):
        sweeps.append(real_run_sweep(*args, **kwargs))
        return sweeps[-1]

    monkeypatch.setattr(cli, "run_sweep", spy)
    argv = [
        "sweep", "--axis", "target_load=0.3,0.5", "--seed", "7",
        "--warmup", "200", "--cycles", "600", "--json",
    ]
    checkpointed = argv + [
        "--checkpoint-dir", str(tmp_path / "ck"), "--checkpoint-every", "300"
    ]
    outputs = []
    for command in (argv, checkpointed, checkpointed):
        assert cli.main(command) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["columns"] == [
        "target_load", "mean_delay_us", "mean_jitter_cycles", "utilisation"
    ]
    plain, first, rerun = sweeps
    assert plain.manifests == {}
    assert sorted((tmp_path / "ck").iterdir()) == sorted(
        Path(lineage["checkpoint"]["path"]) for lineage in first.manifests.values()
    )
    for key in first.manifests:
        assert first.manifests[key]["checkpoint"]["resumed_from_cycle"] is None
        assert rerun.manifests[key]["checkpoint"]["resumed_from_cycle"] == 600


class TestKindRegistry:
    RUNNERS = {
        "single_router": run_single_router_experiment,
        "network": run_network_experiment,
        "churn": run_churn_experiment,
    }

    def test_registry_names_the_three_kinds(self):
        kinds = experiment_kinds()
        assert sorted(kinds) == sorted(self.RUNNERS)
        for kind, experiment in kinds.items():
            assert experiment.KIND == kind
            assert experiment.runner() is self.RUNNERS[kind]
            assert set(experiment.SWEEP_COLUMNS) <= set(experiment.SUMMARY_FIELDS)

    @pytest.mark.parametrize("kind", sorted(RUNNERS))
    def test_runner_round_trip(self, kind):
        assert resolve_runner(kind) is self.RUNNERS[kind]
        assert runner_kind(self.RUNNERS[kind]) == kind

    def test_unknown_kind_raises(self):
        with pytest.raises(FabricError, match="unknown runner kind"):
            resolve_runner("nonesuch")

    def test_foreign_runner_has_no_kind(self):
        with pytest.raises(FabricError, match="has no fabric kind"):
            runner_kind(print)


def test_figures_out_writes_every_figure_as_json_and_csv(tmp_path, monkeypatch, capsys):
    made = {}

    def stub(name):
        def figure(loads, full=False, jobs=1):
            made[name] = FigureData(
                f"Figure {name}", "load", list(loads),
                {"biased": [0.5 * x for x in loads], "fixed": list(loads)},
            )
            if name == "5":
                made["5b"] = FigureData("Figure 5b", "load", list(loads), {"DEC": [1.0, 2.0]})
                return made["5"], made["5b"]
            return made[name]

        return figure

    for name in ("3", "4", "5"):
        monkeypatch.setattr(cli, f"figure{name}", stub(name))
    out = tmp_path / "results"
    assert cli.main(["figures", "all", "--loads", "0.3,0.6", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    figures = {
        "figure3": made["3"], "figure4": made["4"],
        "figure5a": made["5"], "figure5b": made["5b"],
    }
    assert made["3"].xs == [0.3, 0.6]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{name}.{ext}" for name in figures for ext in ("csv", "json")]
        + ["summary.txt"]
    )
    for name, figure in figures.items():
        for ext, write in (("json", write_figure_json), ("csv", write_figure_csv)):
            expected = tmp_path / f"expected.{ext}"
            with open(expected, "w") as stream:
                write(figure, stream)
            assert (out / f"{name}.{ext}").read_bytes() == expected.read_bytes()
    summary = "".join(f"{figure.table()}\n\n" for figure in figures.values())[:-1]
    assert (out / "summary.txt").read_text() == summary
    assert stdout.startswith(summary)


@pytest.mark.parametrize(
    "argv, kind, digest",
    [
        (
            ["--network", "--axis", "topology=mesh3x3,mesh4x4", "--axis", "seed=3,4",
             "--link-load", "0.2", "--warmup", "200", "--cycles", "800",
             "--checkpoint-every", "400"],
            "network", "f72f6b4cf40a54c5",
        ),
        (
            ["--axis", "seed=1,2,3,4", "--axis", "target_load=0.4,0.6"],
            "single_router", "8cf47c6d4acc04a3",
        ),
        (
            ["--axis", "vcs_per_port=64,128", "--axis", "candidates=2,8",
             "--warmup", "100", "--cycles", "300"],
            "single_router", "9d4b786d65165dfd",
        ),
    ],
)
def test_fabric_submission_manifest_is_stable(tmp_path, capsys, argv, kind, digest):
    """The manifest's kind and grid digest are what earlier releases wrote
    for the same grid, so existing fabric directories re-attach."""
    assert cli.main(["fabric", "submit", str(tmp_path / "fab")] + argv) == 0
    manifest = json.loads((tmp_path / "fab" / "queue.json").read_text())
    assert (manifest["kind"], manifest["grid_digest"]) == (kind, digest)
    assert f"submitted grid {digest}" in capsys.readouterr().out
