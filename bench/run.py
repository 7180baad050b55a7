"""The MMR simulator's benchmark: one command, every number, every check.

    python3 bench/run.py [--seed N] [--out FILE]            # all six workloads
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in a fresh single-threaded subprocess (this file again,
with ``--child``), first untraced -- that run gives the end-to-end metrics --
then once more with the hooks of ``tracing.py`` installed, which gives the
per-layer metrics.  The second form is what the benchmark driver calls; its
last line of output is one JSON object.

Metric names, units and bounds are read from ``BENCHMARK.json``, so what is
printed is what is declared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DECLARATION = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())

UNITS = {
    m["name"]: m["unit"] for m in DECLARATION["end_to_end"] + DECLARATION["per_layer"]
}
UNITS["ops_failed_ratio"] = "ratio"  # the driver gets attempted/failed instead
SIM_METRICS = ("sim_delay_mean_cycles", "sim_jitter_mean_cycles", "sim_flits_delivered")
#: A process that got less CPU than this share of its wall time was
#: preempted: its speed is the machine's, not the program's.
MIN_CPU_WALL_RATIO = 0.9
CHILD_TIMEOUT_S = 170


# ----- the child: one workload, in this process ------------------------------


def child(args: argparse.Namespace) -> Dict[str, Any]:
    sys.path.insert(0, str(ROOT_DIR / "src"))
    tracer = None
    if args.trace:
        from tracing import ROOT, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()  # before the scenario exists: tickers bind at build
    from workloads import WORKLOADS

    cls = next(w for w in WORKLOADS if w.name == args.workload)
    scenario = cls(args.seed, args.scale)
    try:
        log = scenario.attach_log() if tracer else None
        run = scenario.run
        if tracer:
            tracer.end_phase("setup")
            run = tracer.wrap(ROOT, run)
        # Spawn -> first timed cycle.  CLOCK_MONOTONIC is system-wide on
        # Linux, so the parent's reading and this one share an origin.
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            return {"setup_s": setup_s}
        cpu_start = time.process_time()
        start = time.perf_counter()
        cycles = run()
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.end_phase("timed")
        summary = scenario.summary()
        failures = scenario.checks(log)
    finally:
        scenario.cleanup()
    out = dict(summary)
    out.update(
        setup_s=setup_s,
        wall_s=wall_s,
        cycles=cycles,
        cycles_per_s=cycles / wall_s,
        cpu_wall_ratio=cpu_s / wall_s,
        peak_rss_mb=peak_rss_mb,
        failures=failures,
        sizes=scenario.sizes,
    )
    if tracer:
        tracer.end_phase("checks")
        out["layers"] = layer_metrics(tracer, summary)
        out["layer_self_s"] = tracer.timed_self_seconds()
        out["trace_missing"] = tracer.missing
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace-{args.workload}.json").write_text(
            json.dumps(
                {"workload": args.workload, "seed": args.seed, "scale": args.scale,
                 "spans": tracer.span_records()}
            )
        )
    return out


# ----- the parent: spawns children, judges, reports --------------------------


class ChildFailed(RuntimeError):
    """A workload subprocess died: there is no number to report."""


def spawn(workload: str, seed: int, scale: float, *flags: str) -> Dict[str, Any]:
    env = dict(os.environ)
    # One thread: a NumPy that spins up a BLAS pool would contend for the
    # two cores with the interpreter it is supposed to serve.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        *flags, "--spawned-at", repr(time.monotonic()),
    ]
    done = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode:
        raise ChildFailed(f"{workload}: child exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(
    workload: str, seed: int, scale: float, setups: bool, trace: bool
) -> Dict[str, Any]:
    """All runs of one workload: the untraced one (again, once, if it was
    preempted), two more set-ups, the traced one; judged and merged."""
    plain = spawn(workload, seed, scale)
    noisy = False
    if plain["cpu_wall_ratio"] < MIN_CPU_WALL_RATIO:
        plain = spawn(workload, seed, scale)
        noisy = plain["cpu_wall_ratio"] < MIN_CPU_WALL_RATIO
    failures = list(plain["failures"])
    setup_samples = [plain["setup_s"]]
    if setups:
        setup_samples += [
            spawn(workload, seed, scale, "--setup-only")["setup_s"] for _ in range(2)
        ]
    attempted, failed = plain["ops_attempted"], plain["ops_failed"]
    record: Dict[str, Any] = {
        "end_to_end": {
            "setup_s": statistics.median(setup_samples),
            "cycles_per_s": plain["cycles_per_s"],
            "peak_rss_mb": plain["peak_rss_mb"],
            **{name: plain[name] for name in SIM_METRICS},
        },
        "setup_samples_s": setup_samples,
        "timed_wall_s": plain["wall_s"],
        "cycles": plain["cycles"],
        "sim_digest": plain["sim_digest"],
        "sizes": plain["sizes"],
        "noisy": noisy,
    }
    if trace:
        traced = spawn(workload, seed, scale, "--trace", "1")
        failures += traced["failures"]
        # Tracing must observe the simulation, not steer it.
        for name in SIM_METRICS + ("sim_digest",):
            if traced[name] != plain[name]:
                failures.append(f"traced {name} {traced[name]!r} != untraced {plain[name]!r}")
        layers = traced["layers"]
        hops = layers["core.router.flit_hops"]
        layers["core.router.us_per_flit_hop"] = (
            plain["wall_s"] * 1e6 / hops if hops else None
        )
        layers["bench.trace_overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        layers["bench.cpu_wall_ratio"] = plain["cpu_wall_ratio"]
        record["per_layer"] = layers
        record["trace_missing"] = traced["trace_missing"]
        record["traced_wall_s"] = traced["wall_s"]
        record["layer_self_s"] = traced["layer_self_s"]
    if failures:
        failed = attempted  # a wrong answer fails every operation
    record.update(
        ops_attempted=attempted,
        ops_failed=failed,
        failures=failures,
    )
    record["end_to_end"]["ops_failed_ratio"] = failed / attempted
    return record


def provenance(seed: int, scale: float) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT_DIR, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {
        "seed": seed,
        "scale": scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": revision,
    }


def print_record(workload: str, record: Dict[str, Any]) -> None:
    print(f"== {workload}  sizes={record['sizes']}")
    for name, value in record["end_to_end"].items():
        print(f"  {name:<40} {value:>16.6g} {UNITS[name]}")
    print(f"  {'ops_attempted':<40} {record['ops_attempted']:>16}")
    print(f"  {'ops_failed':<40} {record['ops_failed']:>16}")
    print(f"  {'sim_digest':<40} {record['sim_digest'][:16]}")
    for name, value in record.get("per_layer", {}).items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>16} {UNITS[name]}")
    if record.get("trace_missing"):
        print(f"  trace_missing: {record['trace_missing']}")
    if record["noisy"]:
        print("  NOISY: the process was preempted on both attempts")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def driver_line(record: Dict[str, Any], trace: bool) -> str:
    section = "per_layer" if trace else "end_to_end"
    values = record[section]
    metrics = {
        m["name"]: {
            # A hook without a target has no number; the driver wants one.
            "value": values[m["name"]] if values[m["name"]] is not None else 0.0,
            "unit": m["unit"],
        }
        for m in DECLARATION[section]
    }
    return json.dumps(
        {
            "correct": not record["failures"],
            "attempted": record["ops_attempted"],
            "failed": record["ops_failed"],
            "metrics": metrics,
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    names = [w["name"] for w in DECLARATION["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=DECLARATION["run_seconds"],
                        help="length of the timed region the sizes aim at")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=Path, default=OUT_DIR / "result.json")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="for the smoke test only; recorded numbers are scale 1")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(child(args)))
        return 0

    scale = args.scale * args.seconds / DECLARATION["run_seconds"]
    if args.workload is not None:
        # Driver form: one workload, one kind of run, one JSON line.
        trace = bool(args.trace)
        record = run_workload(args.workload, args.seed, scale, setups=not trace, trace=trace)
        print_record(args.workload, record)
        print(driver_line(record, trace))
        return 0

    result = {"schema": "mmr-bench/1", "provenance": provenance(args.seed, scale),
              "workloads": {}}
    for name in names:
        record = run_workload(name, args.seed, scale, setups=True, trace=True)
        print_record(name, record)
        result["workloads"][name] = record
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1))
    print(f"wrote {args.out}")
    return 1 if any(r["failures"] for r in result["workloads"].values()) else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as failure:
        # No result line: a crashed workload must not read as a measurement.
        sys.exit(f"benchmark failed: {failure}")
