"""Replay every documented ``repro`` command line against the CLI.

The command lines come from README.md, EXPERIMENTS.md, the verify skill
and the CI workflow.  Each one is parsed by :func:`repro.cli.main` with
the experiment runners stubbed out, and the test asserts the experiment
kind and the spec(s) it builds — for a sweep, every grid point.  A
documented line that stops parsing, or starts building a different
spec, fails here before anyone runs it for an hour.

The second half snapshots every subcommand's option strings, so a
dropped flag fails the test too.
"""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

import repro.fabric
import repro.harness.figures as figures_module
from repro import cli
from repro.fabric import runner_kind
from repro.harness.churn import ChurnSpec
from repro.harness.figures import DEFAULT_LOADS, FigureData
from repro.harness.network_experiment import NetworkExperimentSpec
from repro.harness.single_router import ExperimentSpec
from repro.harness.sweep import SweepAxis, sweep_points

ROOT = Path(__file__).resolve().parent.parent

#: (kind, module, runner name) of the three experiment kinds.
RUNNERS = (
    ("single_router", "repro.harness.single_router", "run_single_router_experiment"),
    ("network", "repro.harness.network_experiment", "run_network_experiment"),
    ("churn", "repro.harness.churn", "run_churn_experiment"),
)

#: Shell tokens that end a command (redirections, pipes, backgrounding).
_SHELL_STOPS = {">", ">>", "2>", "&", "|", "&&", ";"}


def _command(text: str):
    """``text``'s argv after ``repro``, or None when it is not a command."""
    text = re.sub(r"\s+", " ", text.replace("\\\n", " ")).strip()
    text = text.removeprefix("$ ").removeprefix("PYTHONPATH=src ")
    for prefix in ("python -m repro ", "repro "):
        if text.startswith(prefix):
            break
    else:
        return None
    argv = []
    for token in shlex.split(text[len(prefix):], comments=True):
        if token in _SHELL_STOPS:
            break
        argv.append(token)
    return tuple(argv)


def _fenced_lines(path: Path):
    """Command lines inside the fenced code blocks of a Markdown file."""
    in_block = False
    pending = ""
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_block = not in_block
            continue
        if not in_block:
            continue
        pending += line + "\n"
        if line.endswith("\\"):
            continue
        yield pending
        pending = ""


def _inline_spans(path: Path):
    """Inline code spans of a Markdown file that spell out a full command:
    ``python -m repro ...``, or ``repro ...`` with at least one flag (a
    bare ``repro fabric work`` in prose is a mention, not a command)."""
    for span in re.findall(r"`([^`]+)`", path.read_text(encoding="utf-8")):
        span = re.sub(r"\s+", " ", span).strip()
        if "{" in span:  # the ``{run,obs,...}`` synopsis
            continue
        if "python -m repro " in span or (span.startswith("repro ") and " --" in span):
            yield span


def _workflow_lines(path: Path):
    """Shell lines of the workflow's ``run:`` steps, with continuation
    lines joined and ``VAR="python -m repro ..."`` variables expanded."""
    lines = path.read_text(encoding="utf-8").splitlines()
    scripts = []
    for index, line in enumerate(lines):
        match = re.match(r"^(\s*)(?:- )?run: ?(.*)$", line)
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2).strip()
        if value not in (">", "|"):
            scripts.append(value)
            continue
        body = []
        for follow in lines[index + 1:]:
            if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                break
            body.append(follow.strip())
        scripts.append((" " if value == ">" else "\n").join(body))
    for script in scripts:
        script = script.replace("\\\n", " ")
        variables = {}
        for name, value in re.findall(r'(\w+)="([^"]*)"', script, re.DOTALL):
            variables[name] = re.sub(r"\s+", " ", value)
        script = re.sub(r'\w+="[^"]*"', "", script, flags=re.DOTALL)
        for name, value in variables.items():
            script = script.replace(f"${name}", value)
        yield from script.splitlines()


def documented_commands():
    """Every documented command line's argv (after ``repro``), in order."""
    sources = [
        *(_fenced_lines(ROOT / name) for name in ("README.md", "EXPERIMENTS.md")),
        _inline_spans(ROOT / ".claude/skills/verify/SKILL.md"),
        _workflow_lines(ROOT / ".github/workflows/ci.yml"),
    ]
    seen = []
    for source in sources:
        for text in source:
            argv = _command(text)
            if argv is not None and argv not in seen:
                seen.append(argv)
    return seen


# ----- what each documented line must build ---------------------------------


def _grid(base, *axes):
    """Every point spec of ``base`` swept over ``axes`` (name, values)."""
    return [
        spec for _, spec in sweep_points(base, [SweepAxis(n, v) for n, v in axes])
    ]


def _single(**fields):
    return ExperimentSpec(**{"target_load": 0.8, **fields})


def _network(**fields):
    return NetworkExperimentSpec(**{"target_link_load": 0.4, **fields})


def _churn(**fields):
    return ChurnSpec(**{"num_sessions": 10000, **fields})


def _figures(*names, loads=DEFAULT_LOADS, full=False, jobs=1):
    return [(name, tuple(loads), full, jobs) for name in names]


#: Commands that build no spec: they only have to parse.
PARSE_ONLY = "parse-only"
_NO_SPEC = {"ckpt", "report", "info", "fabric work", "fabric status", "fabric gc"}

_MESH_SWEEP = _network(
    target_link_load=0.2, warmup_cycles=200, measure_cycles=800
)
_CI_CHURN = _churn(num_sessions=60, num_nodes=8, seed=7)

#: argv (as one string) -> (kind, specs).  ``kind`` is an experiment kind,
#: "figures" (specs are the figure calls) or PARSE_ONLY.
EXPECTED = {
    # README.md
    "figures fig5": ("figures", _figures("figure5")),
    "sweep --axis candidates=2,4,8 --axis target_load=0.3,0.6,0.9 --jobs 4": (
        "single_router",
        _grid(_single(), ("candidates", (2, 4, 8)), ("target_load", (0.3, 0.6, 0.9))),
    ),
    "run --load 0.3 0.6 0.9 --jobs 3": (
        "single_router",
        _grid(_single(target_load=0.3), ("target_load", (0.3, 0.6, 0.9))),
    ),
    "figures --jobs 4": (
        "figures", _figures("figure3", "figure4", "figure5", jobs=4)
    ),
    "network --topology torus32x32 --routing dimension_order --link-load 0.05 "
    "--cycles 2000 --json": (
        "network",
        [_network(topology="torus32x32", routing="dimension_order",
                  target_link_load=0.05, measure_cycles=2000)],
    ),
    # A network sweep takes NetworkExperimentSpec's own warm-up and
    # measurement defaults, as `repro network` does.
    "sweep --network --axis topology=mesh16x16,torus16x16,mesh32x32,torus32x32 "
    "--axis target_link_load=0.05,0.2,0.4 --routing dimension_order --jobs 4 "
    "--checkpoint-dir sweep_ckpt --checkpoint-every 1000": (
        "network",
        _grid(
            _network(topology="mesh16x16", routing="dimension_order"),
            ("topology", ("mesh16x16", "torus16x16", "mesh32x32", "torus32x32")),
            ("target_link_load", (0.05, 0.2, 0.4)),
        ),
    ),
    "run --load 0.8 --checkpoint-every 20000 --checkpoint-out run.ckpt": (
        "single_router", [_single()]
    ),
    "run --load 0.8 --resume-from run.ckpt": ("single_router", [_single()]),
    "ckpt inspect run.ckpt": (PARSE_ONLY, []),
    "fabric submit grid/ --axis seed=1,2,3,4 --axis target_load=0.4,0.6": (
        "single_router",
        _grid(_single(), ("seed", (1, 2, 3, 4)), ("target_load", (0.4, 0.6))),
    ),
    "fabric work grid/ --until-complete": (PARSE_ONLY, []),
    "fabric work grid/": (PARSE_ONLY, []),
    "fabric status grid/": (PARSE_ONLY, []),
    "fabric gc grid/": (PARSE_ONLY, []),
    "churn --sessions 10000 --nodes 12": ("churn", [_churn(num_nodes=12)]),
    "churn --sessions 2000 --vbr-fraction 1.0 --renegotiation-fraction 0.5 "
    "--telemetry --json": (
        "churn",
        [_churn(num_sessions=2000, vbr_fraction=1.0,
                renegotiation_fraction=0.5, telemetry=True)],
    ),
    "churn --axis mean_interarrival_cycles=200,400,800 "
    "--axis vbr_fraction=0.0,0.3,0.6 --jobs 4": (
        "churn",
        _grid(
            _churn(),
            ("mean_interarrival_cycles", (200, 400, 800)),
            ("vbr_fraction", (0.0, 0.3, 0.6)),
        ),
    ),
    "churn --sessions 5000 --nodes 12 --slo setup_p99=500 "
    "--slo blocking_probability=0.05": (
        "churn",
        [_churn(num_sessions=5000, num_nodes=12,
                slos=("setup_p99=500", "blocking_probability=0.05"))],
    ),
    "churn --sessions 2000 --renegotiation-fraction 0.5 --health-out health.jsonl "
    "--trace-out churn.trace.json --export-out churn.export.json "
    "--report-out report.html": (
        "churn",
        [_churn(num_sessions=2000, renegotiation_fraction=0.5, telemetry=True)],
    ),
    "report --health health.jsonl --export churn.export.json -o report.html": (
        PARSE_ONLY, []
    ),
    "obs --load 0.5 --cycles 20000 --trace-out trace.json": (
        "single_router", [_single(target_load=0.5, measure_cycles=20000, telemetry=True)]
    ),
    "run --telemetry --json": ("single_router", [_single(telemetry=True)]),
    # EXPERIMENTS.md
    "churn --sessions 2000 --nodes 12 --interarrival 30 --seed 1 "
    "--slo setup_p99=40 --slo blocking_probability=0.05": (
        "churn",
        [_churn(num_sessions=2000, num_nodes=12, mean_interarrival_cycles=30.0,
                seed=1, slos=("setup_p99=40", "blocking_probability=0.05"))],
    ),
    "report --health health.jsonl --export export.json -o report.html": (
        PARSE_ONLY, []
    ),
    "fabric submit grid/ --network --axis topology=mesh8x8,torus8x8 "
    "--axis seed=1,2,3 --link-load 0.3 --warmup 2000 --cycles 20000 "
    "--checkpoint-every 5000": (
        "network",
        _grid(
            _network(target_link_load=0.3, warmup_cycles=2000, measure_cycles=20000),
            ("topology", ("mesh8x8", "torus8x8")),
            ("seed", (1, 2, 3)),
        ),
    ),
    "sweep --network --axis topology=mesh8x8,torus8x8,mesh16x16,torus16x16,"
    "mesh32x32,torus32x32 --axis target_link_load=0.05,0.2,0.4 "
    "--routing dimension_order --warmup 500 --cycles 2000 --jobs 4 "
    "--checkpoint-dir sweep_ckpt --checkpoint-every 1000": (
        "network",
        _grid(
            _network(topology="mesh8x8", routing="dimension_order",
                     warmup_cycles=500, measure_cycles=2000),
            ("topology", ("mesh8x8", "torus8x8", "mesh16x16", "torus16x16",
                          "mesh32x32", "torus32x32")),
            ("target_link_load", (0.05, 0.2, 0.4)),
        ),
    ),
    # .claude/skills/verify/SKILL.md
    "figures all --out results/": (
        "figures", _figures("figure3", "figure4", "figure5")
    ),
    "sweep --axis target_load=0.3,0.6 --warmup 500 --cycles 2000 --json "
    "--checkpoint-dir D": (
        "single_router",
        _grid(
            _single(warmup_cycles=500, measure_cycles=2000),
            ("target_load", (0.3, 0.6)),
        ),
    ),
    "run --load 0.3": ("single_router", [_single(target_load=0.3)]),
    "run --load 0.6 --warmup 2000 --cycles 8000 --json --checkpoint-every 4000 "
    "--checkpoint-out /tmp/s.ckpt": (
        "single_router",
        [_single(target_load=0.6, warmup_cycles=2000, measure_cycles=8000)],
    ),
    "ckpt inspect /tmp/s.ckpt": (PARSE_ONLY, []),
    "sweep --network --axis target_link_load=0.1,0.2 --nodes 6 --warmup 500 "
    "--cycles 2000 --json --checkpoint-dir D": (
        "network",
        _grid(
            _network(num_nodes=6, warmup_cycles=500, measure_cycles=2000),
            ("target_link_load", (0.1, 0.2)),
        ),
    ),
    "churn --sessions 60 --nodes 8 --json --checkpoint-dir D": (
        "churn", [_churn(num_sessions=60, num_nodes=8)]
    ),
    "network --link-load 0.2 --nodes 8 --best-effort 0.5": (
        "network", [_network(target_link_load=0.2, num_nodes=8, best_effort_rate=0.5)]
    ),
    "churn --sessions 200 --nodes 12 --seed 7 --telemetry": (
        "churn", [_churn(num_sessions=200, num_nodes=12, seed=7, telemetry=True)]
    ),
    "obs --load 0.3 --warmup 2000 --cycles 6000 --trace-out /tmp/t.json": (
        "single_router",
        [_single(target_load=0.3, warmup_cycles=2000, measure_cycles=6000,
                 telemetry=True)],
    ),
    # .github/workflows/ci.yml
    "network --topology torus16x16 --routing dimension_order --link-load 0.05 "
    "--warmup 100 --cycles 200 --seed 3 --json": (
        "network",
        [_network(topology="torus16x16", routing="dimension_order",
                  target_link_load=0.05, warmup_cycles=100, measure_cycles=200,
                  seed=3)],
    ),
    "fabric submit fabdir --network --axis topology=mesh3x3,mesh4x4 "
    "--axis seed=3,4 --link-load 0.2 --warmup 200 --cycles 800 "
    "--checkpoint-every 400": (
        "network",
        _grid(_MESH_SWEEP, ("topology", ("mesh3x3", "mesh4x4")), ("seed", (3, 4))),
    ),
    "fabric work fabdir": (PARSE_ONLY, []),
    "fabric work fabdir --until-complete --timeout 300": (PARSE_ONLY, []),
    "fabric status fabdir --json": (PARSE_ONLY, []),
    "churn --sessions 200 --nodes 12 --seed 7 --telemetry "
    "--bench-out BENCH_churn.ci.json": (
        "churn", [_churn(num_sessions=200, num_nodes=12, seed=7, telemetry=True)]
    ),
    "churn --sessions 120 --nodes 10 --seed 7 --slo setup_p99=3": (
        "churn", [_churn(num_sessions=120, num_nodes=10, seed=7, slos=("setup_p99=3",))]
    ),
    "churn --sessions 120 --nodes 10 --seed 7 --slo setup_p99=500 "
    "--slo blocking_probability=0.5 --health-out health.ci.jsonl "
    "--health-every 5000 --trace-out churn_trace.ci.json "
    "--export-out churn_export.ci.json --report-out churn_report.ci.html": (
        "churn",
        [_churn(num_sessions=120, num_nodes=10, seed=7, telemetry=True,
                slos=("setup_p99=500", "blocking_probability=0.5"))],
    ),
    "report --health health.ci.jsonl --export churn_export.ci.json "
    "-o churn_report_rebuilt.ci.html": (PARSE_ONLY, []),
    "run --load 0.6 --seed 7 --warmup 2000 --cycles 8000 --json": (
        "single_router",
        [_single(target_load=0.6, seed=7, warmup_cycles=2000, measure_cycles=8000)],
    ),
    "run --load 0.6 --seed 7 --warmup 2000 --cycles 8000 --json "
    "--checkpoint-every 4000 --checkpoint-out sample.ckpt": (
        "single_router",
        [_single(target_load=0.6, seed=7, warmup_cycles=2000, measure_cycles=8000)],
    ),
    "run --load 0.6 --seed 7 --warmup 2000 --cycles 8000 --json "
    "--resume-from sample.ckpt": (
        "single_router",
        [_single(target_load=0.6, seed=7, warmup_cycles=2000, measure_cycles=8000)],
    ),
    "ckpt inspect sample.ckpt": (PARSE_ONLY, []),
    "sweep --network --axis target_link_load=0.1,0.2 --nodes 6 --seed 7 "
    "--warmup 500 --cycles 2000 --json": (
        "network",
        _grid(
            _network(num_nodes=6, seed=7, warmup_cycles=500, measure_cycles=2000),
            ("target_link_load", (0.1, 0.2)),
        ),
    ),
    "sweep --network --axis target_link_load=0.1,0.2 --nodes 6 --seed 7 "
    "--warmup 500 --cycles 2000 --json --checkpoint-dir ck_net "
    "--checkpoint-every 800": (
        "network",
        _grid(
            _network(num_nodes=6, seed=7, warmup_cycles=500, measure_cycles=2000),
            ("target_link_load", (0.1, 0.2)),
        ),
    ),
    "sweep --axis target_load=0.3,0.6 --seed 7 --warmup 500 --cycles 2000 "
    "--json --checkpoint-dir ck_single --checkpoint-every 800": (
        "single_router",
        _grid(
            _single(seed=7, warmup_cycles=500, measure_cycles=2000),
            ("target_load", (0.3, 0.6)),
        ),
    ),
    "ckpt inspect --json $f": (PARSE_ONLY, []),
    "churn --sessions 60 --nodes 8 --seed 7 --json": ("churn", [_CI_CHURN]),
    "churn --sessions 60 --nodes 8 --seed 7 --json --checkpoint-dir ck_churn "
    "--checkpoint-every 5000": ("churn", [_CI_CHURN]),
}


class _Captured(Exception):
    """Raised by a stub once the command has built what it would run."""


def _kind_of(runner) -> str:
    return getattr(runner, "kind", None) or runner_kind(runner)


def _stub_figure(calls, name):
    def figure(loads=DEFAULT_LOADS, full=False, jobs=1, **_):
        calls.append(("figures", [(name, tuple(loads), full, jobs)]))
        data = FigureData(name, "load", [0.5], {"series": [1.0]})
        return (data, data) if name == "figure5" else data

    return figure


@pytest.fixture
def replay(monkeypatch, tmp_path):
    """Run ``repro <argv>`` with every runner stubbed; return what it built."""
    monkeypatch.chdir(tmp_path)
    calls = []

    def runner_stub(kind):
        def runner(spec, *args, **kwargs):
            calls.append((kind, [spec]))
            raise _Captured

        runner.kind = kind
        return runner

    for kind, module, name in RUNNERS:
        stub = runner_stub(kind)
        monkeypatch.setattr(f"{module}.{name}", stub)
        monkeypatch.setattr(cli, name, stub, raising=False)

    def run_sweep(base, axes, *args, _runner=None, **kwargs):
        kind = "single_router" if _runner is None else _kind_of(_runner)
        calls.append((kind, [spec for _, spec in sweep_points(base, axes)]))
        raise _Captured

    def submit_sweep(fabric, points, runner, axes=()):
        calls.append((_kind_of(runner), [spec for _, spec in points]))
        raise _Captured

    def find_saturation_load(base, *args, **kwargs):
        calls.append(("single_router", [base]))
        raise _Captured

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    monkeypatch.setattr(repro.fabric, "submit_sweep", submit_sweep)
    monkeypatch.setattr(cli, "find_saturation_load", find_saturation_load)
    for name in ("figure3", "figure4", "figure5"):
        stub = _stub_figure(calls, name)
        monkeypatch.setattr(figures_module, name, stub)
        monkeypatch.setattr(cli, name, stub, raising=False)

    real_parse_args = argparse.ArgumentParser.parse_args

    def parse_args(self, args=None, namespace=None):
        parsed = real_parse_args(self, args, namespace)
        command = parsed.command
        if command == "fabric":
            command += " " + parsed.fabric_command
        if command in _NO_SPEC:
            parsed.func = lambda _: calls.append((PARSE_ONLY, [])) or 0
        return parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_args)

    def run(argv):
        try:
            cli.main(list(argv))
        except _Captured:
            pass
        figure_calls = [spec for kind, specs in calls if kind == "figures" for spec in specs]
        if figure_calls:
            return "figures", figure_calls
        assert len(calls) == 1, calls
        return calls[0]

    return run


def test_every_documented_command_has_an_expectation():
    documented = {" ".join(argv) for argv in documented_commands()}
    assert documented == set(EXPECTED), (
        f"undocumented expectations: {sorted(set(EXPECTED) - documented)}; "
        f"lines without one: {sorted(documented - set(EXPECTED))}"
    )


@pytest.mark.parametrize(
    "argv", documented_commands(), ids=lambda argv: " ".join(argv)[:60]
)
def test_documented_command_builds_its_spec(replay, argv):
    kind, specs = replay(argv)
    assert (kind, specs) == EXPECTED[" ".join(argv)]


# ----- option-string snapshot -------------------------------------------------


#: Every subcommand's option strings (positionals as <dest>).
OPTIONS = {
    "run": "--candidates --checkpoint-every --checkpoint-out --cycles --jobs "
           "--json --load --priority --resume-from --scheduler --seed "
           "--telemetry --trace-out --warmup -h --help",
    "obs": "--candidates --cycles --export-out --json --load --priority "
           "--scheduler --seed --trace-out --warmup -h --help",
    "sweep": "--axis --best-effort --candidates --checkpoint-dir "
             "--checkpoint-every --cycles --jobs --json --link-load --load "
             "--metrics --network --nodes --priority --routing --scheduler "
             "--seed --topology --warmup -h --help",
    "figures": "--cache-dir --full --jobs --loads --out -h --help <which>",
    "fabric submit": "--axis --best-effort --candidates --checkpoint-every "
                     "--cycles --heartbeat-every --link-load --load --network "
                     "--nodes --priority --routing --scheduler --seed "
                     "--store-dir --topology --ttl --warmup -h --help <directory>",
    "fabric work": "--heartbeat-every --max-points --store-dir --timeout --ttl "
                   "--until-complete -h --help <directory>",
    "fabric status": "--heartbeat-every --json --store-dir --ttl -h --help "
                     "<directory>",
    "fabric gc": "--heartbeat-every --prune-old-revisions --store-dir --ttl "
                 "-h --help <directory>",
    "saturation": "--candidates --cycles --load --priority --scheduler --seed "
                  "--tolerance --warmup -h --help",
    "network": "--best-effort --cycles --json --link-load --nodes --routing "
               "--seed --topology --warmup -h --help",
    "churn": "--axis --bench-out --checkpoint-dir --checkpoint-every "
             "--diurnal-amplitude --exact-setup-stats --export-out "
             "--health-every --health-out --holding --interarrival --jobs "
             "--json --no-police --nodes --renegotiation-fraction --report-out "
             "--seed --sessions --slo --telemetry --trace-out --vbr-fraction "
             "-h --help",
    "ckpt inspect": "--json -h --help <file>",
    "report": "--export --health --out --rollup --title -h --help -o",
    "info": "-h --help",
}


def _subcommands(parser, prefix=()):
    """(subcommand path, option strings) of every leaf parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _subcommands(child, prefix + (name,))
            return
    options = set()
    for action in parser._actions:
        options.update(action.option_strings or [f"<{action.dest}>"])
    yield " ".join(prefix), options


def test_option_strings_snapshot(monkeypatch):
    parsers = []

    def capture(self, args=None, namespace=None):
        parsers.append(self)
        raise _Captured

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Captured):
        cli.main(["info"])
    expected = {name: set(options.split()) for name, options in OPTIONS.items()}
    assert dict(_subcommands(parsers[0])) == expected
