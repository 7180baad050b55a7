#!/usr/bin/env python
"""Perf gate: what must stay true of the one engine, with the evidence.

There is one kernel, one candidate scan and one link plane, so nothing
here compares two engines (the oracles for the kernel and the scan are
``tests/polling_kernel.py`` and ``tests/reference_scheduler.py``, in
tier-1).  What is left are the claims that need a clock, a disk or a
second process:

1. **Observability** (``BENCH_kernel.json``) — carrying a *disabled*
   flight recorder must cost less than ``--max-obs-overhead`` percent on
   the 10%-link-load CBR points (one 124 Mbps stream through the 8x8
   router, and one on every input port), and a recorder-on run must
   export a Chrome/Perfetto trace that validates against the trace-event
   schema with a complete inject/grant/deliver lifecycle for every
   delivered flit (written to ``--trace-output``).  Control-plane span
   tracing must likewise be a pure observer: the same churn point with
   the recorder on must reproduce every workload metric of the
   recorder-off run bit-for-bit, while leaving fully closed, schema-valid
   span trees (one root per session attempt).
2. **Sweep parallelism** (``BENCH_sched.json``) — ``run_sweep(...,
   jobs=N)`` must produce the same metric rows as a serial run, and must
   be at least ``--min-sweep-speedup`` times faster wall-clock when the
   machine actually has ``--sweep-jobs`` cores (recorded but not gated on
   smaller machines — a 1-core runner cannot exhibit the speedup).
3. **Checkpoint identity** (``BENCH_ckpt.json``) — the saturated-CBR
   90%-load single router (the 729-connection scenario) and the 12-node
   multihop network (with best-effort chatter in flight) run straight
   through vs checkpoint-at-midpoint / restore-from-disk / resume, and
   must produce bit-identical delivered-flit streams and statistics.
   Both legs report their ``payload_bytes``.
4. **Fabric** (``BENCH_fabric.json``) — see :func:`run_fabric_gates`.

Run from the repo root::

    PYTHONPATH=src python scripts/perf_gate.py

Exits non-zero when an identity check fails or a gate is missed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness.kernel_bench import (  # noqa: E402
    measure_obs_overhead,
    measure_sweep_speedup,
    run_trace_validation,
)
from repro.ckpt.verify import (  # noqa: E402
    run_ckpt_network_identity_check,
    run_ckpt_router_identity_check,
)
from repro.obs import build_manifest, validate_chrome_trace  # noqa: E402
from repro.harness.churn import ChurnSpec, run_churn_experiment  # noqa: E402


def _churn_summary(result) -> dict:
    return {
        "arrivals": result.arrivals,
        "established": result.established,
        "blocked": result.blocked,
        "torn_down": result.torn_down,
        "setup_p50": result.setup_p50,
        "setup_p99": result.setup_p99,
        "setup_mean": result.setup_mean,
        "mean_delay_cycles": result.mean_delay_cycles,
        "mean_jitter_cycles": result.mean_jitter_cycles,
        "flits_delivered": result.flits_delivered,
        "renegotiations_applied": result.renegotiations_applied,
        "renegotiations_refused": result.renegotiations_refused,
        "teardown_retries": result.teardown_retries,
        "links_searched": result.links_searched,
        "backtracks": result.backtracks,
        "drained": result.drained,
        "leak_free": result.leak_free,
    }


def churn_obs_identity(seed: int = 7) -> dict:
    """Span tracing must be a pure observer of the churn workload.

    The same churn point runs with the flight recorder off and on; every
    workload metric must match bit-for-bit (the recorder may observe,
    never steer).  The recorder-on run must additionally leave a
    schema-valid Chrome trace whose control-plane span trees are all
    closed, with one root per completed session attempt.
    """
    spec_kwargs = dict(
        num_sessions=80,
        num_nodes=8,
        mean_interarrival_cycles=150.0,
        mean_holding_cycles=4000.0,
        vbr_fraction=0.4,
        renegotiation_fraction=0.5,
        seed=seed,
    )
    plain = run_churn_experiment(ChurnSpec(telemetry=False, **spec_kwargs))
    observed = run_churn_experiment(ChurnSpec(telemetry=True, **spec_kwargs))
    summaries = {
        "off": _churn_summary(plain),
        "on": _churn_summary(observed),
    }
    recorder = observed.recorder
    schema_ok = True
    try:
        validate_chrome_trace(recorder.chrome_trace())
    except ValueError:
        schema_ok = False
    roots = recorder.spans.roots()
    spans_closed = recorder.spans.open_count == 0
    return {
        "identical": summaries["off"] == summaries["on"],
        "seed": seed,
        "summaries": summaries,
        "spans": len(recorder.spans),
        "span_roots": len(roots),
        "attempts": observed.established + observed.blocked,
        "roots_match_attempts": (
            len(roots) == observed.established + observed.blocked
        ),
        "spans_closed": spans_closed,
        "span_dropped": recorder.spans.dropped,
        "trace_schema_ok": schema_ok,
        "ok": (
            summaries["off"] == summaries["on"]
            and schema_ok
            and spans_closed
            and len(roots) == observed.established + observed.blocked
        ),
    }


def run_fabric_gates(args, failures) -> dict:
    """Distributed-fabric gates: cache + crash requeue (BENCH_fabric.json).

    Self-contained so ``--fabric-only`` (the CI fabric-smoke job) can
    execute just this section.  Four legs over one small
    single-router grid, all compared row-for-row against a serial
    ``run_sweep`` baseline with exact float equality:

    * **cold** — ``run_sweep(fabric=...)`` into an empty store computes
      every point and must reproduce the serial rows bit-identically;
    * **warm** — a fresh queue against the same store must recompute
      **zero** points (every marker ``cached``, every lookup a hit);
    * **corruption** — one store entry is truncated; the rerun must
      recompute exactly that point (typed corruption drop, never a
      silent reuse) and still match the serial rows;
    * **kill** — a subprocess worker SIGKILLs itself mid-point after its
      first checkpoint; a second worker must break the dead lease,
      resume the point from its checkpoint (``resumed_from_cycle > 0``),
      and the finished grid must again be bit-identical to serial.

    Hit/miss counts come straight from the workers' store accounting and
    the queue's result markers — no derived or assumed numbers.
    """
    import shutil
    import subprocess
    import tempfile

    from repro.core.config import RouterConfig
    from repro.fabric import (
        Fabric,
        FabricQueue,
        FabricWorker,
        ResultStore,
        collect_sweep,
        submit_sweep,
    )
    from repro.harness.single_router import (
        ExperimentSpec,
        run_single_router_experiment,
    )
    from repro.harness.sweep import SweepAxis, run_sweep, sweep_points

    metrics = ("mean_delay_cycles", "mean_jitter_cycles", "utilisation")
    config = RouterConfig(num_ports=4, vcs_per_port=32, enforce_round_budgets=False)
    base = ExperimentSpec(
        config=config,
        target_load=0.4,
        candidates=4,
        seed=3,
        warmup_cycles=args.fabric_warmup,
        measure_cycles=args.fabric_cycles,
    )
    axes = [SweepAxis("seed", tuple(range(3, 3 + args.fabric_points)))]
    points = sweep_points(base, axes)

    print(f"== fabric baseline: serial run_sweep ({len(points)} points) ==")
    serial_rows = run_sweep(base, axes).rows(metrics)

    workdir = Path(tempfile.mkdtemp(prefix="fabric-gate-"))
    try:
        # --- cold: run_sweep(fabric=...) into an empty store ---------------
        print("== fabric cold: run_sweep(fabric=...) into an empty store ==")
        cold_fabric = Fabric(
            directory=workdir / "cold",
            lease_ttl=30.0,
            checkpoint_every=args.fabric_checkpoint_every,
        )
        cold_rows = run_sweep(base, axes, fabric=cold_fabric).rows(metrics)
        cold_queue = FabricQueue(cold_fabric.directory)
        cold_markers = [
            cold_queue.read_result(pid) for pid in cold_queue.point_ids()
        ]
        cold_cached = sum(1 for m in cold_markers if m["cached"])
        cold_identical = cold_rows == serial_rows
        cold_store = ResultStore(cold_fabric.store_root)
        print(
            f"   computed={len(cold_markers) - cold_cached} "
            f"cached={cold_cached} entries={cold_store.entries()} "
            f"rows_identical={cold_identical}"
        )
        if not cold_identical:
            failures.append("fabric cold rows differ from serial rows")
        if cold_cached != 0:
            failures.append(
                f"fabric cold run reported {cold_cached} cache hits "
                "from an empty store"
            )

        # --- warm: fresh queue, same store → zero recomputes ---------------
        print("== fabric warm: fresh queue against the populated store ==")
        warm_fabric = Fabric(
            directory=workdir / "warm",
            lease_ttl=30.0,
            checkpoint_every=args.fabric_checkpoint_every,
            store_dir=cold_fabric.store_root,
        )
        submit_sweep(warm_fabric, points, run_single_router_experiment, axes=tuple(axes))
        warm_worker = FabricWorker(warm_fabric)
        warm_worker.drain_until_complete(timeout=300)
        warm_rows = collect_sweep(warm_fabric, tuple(axes)).rows(metrics)
        warm_stats = warm_worker.store.stats()
        warm_identical = warm_rows == serial_rows
        print(
            f"   recomputed={warm_worker.points_computed} "
            f"cached={warm_worker.points_cached} "
            f"hits={warm_stats['hits']} misses={warm_stats['misses']} "
            f"rows_identical={warm_identical}"
        )
        if warm_worker.points_computed != 0:
            failures.append(
                f"warm-cache rerun recomputed {warm_worker.points_computed} "
                "points (expected 0)"
            )
        if warm_worker.points_cached != len(points):
            failures.append(
                f"warm-cache rerun cached {warm_worker.points_cached} of "
                f"{len(points)} points"
            )
        if not warm_identical:
            failures.append("fabric warm rows differ from serial rows")

        # --- corruption: truncate one entry → recompute exactly it ---------
        print("== fabric corruption: truncated entry must recompute ==")
        victim_key = warm_worker.store.key_for(points[0][1], repr(points[0][0]))
        victim_path = warm_worker.store.path_for(victim_key)
        victim_path.write_bytes(victim_path.read_bytes()[: len(MAGIC_PROBE)])
        corrupt_fabric = Fabric(
            directory=workdir / "corrupt",
            lease_ttl=30.0,
            checkpoint_every=args.fabric_checkpoint_every,
            store_dir=cold_fabric.store_root,
        )
        submit_sweep(
            corrupt_fabric, points, run_single_router_experiment, axes=tuple(axes)
        )
        corrupt_worker = FabricWorker(corrupt_fabric)
        corrupt_worker.drain_until_complete(timeout=300)
        corrupt_rows = collect_sweep(corrupt_fabric, tuple(axes)).rows(metrics)
        corrupt_stats = corrupt_worker.store.stats()
        corrupt_identical = corrupt_rows == serial_rows
        print(
            f"   corrupt_dropped={corrupt_stats['corrupt_dropped']} "
            f"recomputed={corrupt_worker.points_computed} "
            f"cached={corrupt_worker.points_cached} "
            f"rows_identical={corrupt_identical}"
        )
        if corrupt_stats["corrupt_dropped"] != 1:
            failures.append(
                f"corruption drill dropped {corrupt_stats['corrupt_dropped']} "
                "entries (expected 1)"
            )
        if corrupt_worker.points_computed != 1:
            failures.append(
                f"corruption drill recomputed {corrupt_worker.points_computed} "
                "points (expected exactly the truncated one)"
            )
        if not corrupt_identical:
            failures.append("fabric corruption-drill rows differ from serial rows")

        # --- kill: SIGKILLed worker → lease requeue → checkpoint resume ----
        print("== fabric kill: SIGKILL a worker mid-point, requeue + resume ==")
        kill_fabric = Fabric(
            directory=workdir / "kill",
            lease_ttl=2.0,
            heartbeat_every=0.5,
            checkpoint_every=args.fabric_checkpoint_every,
        )
        submit_sweep(kill_fabric, points, run_single_router_experiment, axes=tuple(axes))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        doomed = subprocess.run(
            [
                sys.executable, "-m", "repro", "fabric", "work",
                str(kill_fabric.directory),
                "--ttl", "2", "--heartbeat-every", "0.5",
                "--kill-after-checkpoints", "1",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        rescue_worker = FabricWorker(kill_fabric)
        rescue_worker.drain_until_complete(timeout=300)
        kill_rows = collect_sweep(kill_fabric, tuple(axes)).rows(metrics)
        kill_queue = FabricQueue(kill_fabric.directory, lease_ttl=2.0)
        kill_status = kill_queue.status()
        resumed_cycles = [
            (kill_queue.read_result(pid).get("checkpoint") or {}).get(
                "resumed_from_cycle"
            )
            for pid in kill_queue.point_ids()
        ]
        resumed_points = sum(1 for c in resumed_cycles if c is not None)
        kill_identical = kill_rows == serial_rows
        print(
            f"   killed_rc={doomed.returncode} "
            f"lease_expiries={kill_status['lease_expiries_logged']} "
            f"resumed_points={resumed_points} "
            f"resume_cycles={[c for c in resumed_cycles if c is not None]} "
            f"rows_identical={kill_identical}"
        )
        if doomed.returncode != -9:
            failures.append(
                f"crash-drill worker exited {doomed.returncode}, expected "
                f"SIGKILL (-9); stderr: {doomed.stderr[-300:]}"
            )
        if kill_status["lease_expiries_logged"] < 1:
            failures.append("killed worker's lease was never broken/requeued")
        if resumed_points < 1:
            failures.append(
                "no point resumed from a checkpoint after the worker kill"
            )
        if not any(c and c > 0 for c in resumed_cycles):
            failures.append(
                "requeued point restarted from cycle 0 instead of its checkpoint"
            )
        if not kill_identical:
            failures.append("fabric killed-worker rows differ from serial rows")

        fabric_report = {
            "schema": "bench-fabric/2",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "manifest": build_manifest(command="scripts/perf_gate.py"),
            "grid": {
                "points": len(points),
                "axes": [{"name": a.name, "values": list(a.values)} for a in axes],
                "metrics": list(metrics),
                "warmup_cycles": args.fabric_warmup,
                "measure_cycles": args.fabric_cycles,
                "checkpoint_every": args.fabric_checkpoint_every,
            },
            "cold": {
                "rows_identical": cold_identical,
                "computed": len(cold_markers) - cold_cached,
                "cached": cold_cached,
                "store_entries": cold_store.entries(),
            },
            "warm": {
                "rows_identical": warm_identical,
                "recomputed": warm_worker.points_computed,
                "cached": warm_worker.points_cached,
                "store": warm_stats,
            },
            "corruption": {
                "rows_identical": corrupt_identical,
                "recomputed": corrupt_worker.points_computed,
                "cached": corrupt_worker.points_cached,
                "store": corrupt_stats,
            },
            "kill": {
                "rows_identical": kill_identical,
                "killed_worker_returncode": doomed.returncode,
                "lease_expiries": kill_status["lease_expiries_logged"],
                "resumed_points": resumed_points,
                "resumed_from_cycles": [c for c in resumed_cycles if c is not None],
                "rescue_worker": {
                    "computed": rescue_worker.points_computed,
                    "cached": rescue_worker.points_cached,
                    "resumed": rescue_worker.points_resumed,
                },
            },
            "gate": {
                "warm_recomputed": warm_worker.points_computed,
                "kill_rows_identical": kill_identical,
                "passed": (
                    cold_identical
                    and warm_identical
                    and corrupt_identical
                    and kill_identical
                    and warm_worker.points_computed == 0
                    and resumed_points >= 1
                ),
            },
        }
        args.fabric_output.write_text(json.dumps(fabric_report, indent=2) + "\n")
        print(f"wrote {args.fabric_output}")
        return fabric_report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: Length of the result-store magic line; the corruption drill truncates
#: an entry to exactly this prefix (valid magic, nothing else).
MAGIC_PROBE = b"MMR-RESULT\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cycles", type=int, default=120_000,
        help="simulated cycles per timing run (default 120000)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats; best is reported (default 5)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_kernel.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--skip-multihop", action="store_true",
        help="skip the (slower) multihop checkpoint identity check",
    )
    parser.add_argument(
        "--max-obs-overhead", type=float, default=2.0,
        help="gate: max %% cost of a disabled flight recorder (default 2.0)",
    )
    parser.add_argument(
        "--trace-cycles", type=int, default=1000,
        help="cycles for the recorder-on trace validation run (default 1000)",
    )
    parser.add_argument(
        "--trace-output", type=Path, default=REPO_ROOT / "BENCH_trace.json",
        help="where to write the validated Perfetto trace artefact",
    )
    parser.add_argument(
        "--sweep-jobs", type=int, default=4,
        help="worker count for the sweep-parallelism measurement (default 4)",
    )
    parser.add_argument(
        "--min-sweep-speedup", type=float, default=2.0,
        help="gate threshold on the parallel sweep, enforced only when the "
             "machine has at least --sweep-jobs cores (default 2.0)",
    )
    parser.add_argument(
        "--skip-sweep", action="store_true",
        help="skip the sweep-parallelism measurement",
    )
    parser.add_argument(
        "--sched-output", type=Path, default=REPO_ROOT / "BENCH_sched.json",
        help="where to write the sweep-gate JSON report",
    )
    parser.add_argument(
        "--ckpt-identity-cycles", type=int, default=8_000,
        help="cycles for the saturated-CBR checkpoint identity run "
             "(default 8000)",
    )
    parser.add_argument(
        "--ckpt-output", type=Path, default=REPO_ROOT / "BENCH_ckpt.json",
        help="where to write the checkpoint-gate JSON report",
    )

    parser.add_argument(
        "--fabric-points", type=int, default=4,
        help="grid size for the fabric gates (default 4 points)",
    )
    parser.add_argument(
        "--fabric-warmup", type=int, default=300,
        help="warm-up cycles per fabric gate point (default 300)",
    )
    parser.add_argument(
        "--fabric-cycles", type=int, default=12_000,
        help="measured cycles per fabric gate point (default 12000; long "
             "enough that the crash-drill SIGKILL lands mid-point, after "
             "the first checkpoint but before completion)",
    )
    parser.add_argument(
        "--fabric-checkpoint-every", type=int, default=2_000,
        help="per-point checkpoint period for the fabric gates (default 2000)",
    )
    parser.add_argument(
        "--fabric-output", type=Path,
        default=REPO_ROOT / "BENCH_fabric.json",
        help="where to write the fabric-gate JSON report",
    )
    parser.add_argument(
        "--fabric-only", action="store_true",
        help="run only the distributed-fabric gates (warm-cache zero "
             "recompute, corruption recompute, killed-worker requeue + "
             "checkpoint-resume identity); used by the CI fabric-smoke job",
    )
    args = parser.parse_args(argv)
    if args.cycles <= 0 or args.repeats <= 0:
        parser.error("--cycles and --repeats must be positive")

    failures = []

    if args.fabric_only:
        fabric_report = run_fabric_gates(args, failures)
        if failures:
            print("FAIL: " + "; ".join(failures))
            return 1
        kill = fabric_report["kill"]
        print(
            "PASS: fabric warm rerun recomputed 0 points, killed-worker "
            f"grid identical to serial (resumed {kill['resumed_points']} "
            f"point(s) from cycle {max(kill['resumed_from_cycles'])})"
        )
        return 0

    obs_overhead = {}
    for name, connections, cycle_factor in (
        # The fast-forwarding single-stream scenario gets proportionally
        # more cycles so each timed slice is long enough for a sub-2%
        # comparison to be meaningful; repeats are floored at 9 (72 slice
        # pairs) because pair count, not run length, is what bounds the
        # residual noise here.
        ("cbr_10pct_single_stream", 1, 5),
        ("cbr_10pct_all_ports", 8, 1),
    ):
        print(f"== observability: disabled-recorder overhead, {name} ==")
        measurement = measure_obs_overhead(
            connections, args.cycles * cycle_factor, max(args.repeats, 9)
        )
        obs_overhead[name] = measurement
        print(
            f"   baseline={measurement['baseline_cycles_per_sec']:,.0f} cyc/s  "
            f"disabled={measurement['disabled_cycles_per_sec']:,.0f} cyc/s  "
            f"overhead={measurement['overhead_pct']:+.2f}%"
        )
        if measurement["overhead_pct"] > args.max_obs_overhead:
            failures.append(
                f"disabled-recorder overhead {measurement['overhead_pct']:.2f}% "
                f"on {name} above {args.max_obs_overhead}%"
            )

    print("== observability: trace export validation ==")
    trace_check = run_trace_validation(8, args.trace_cycles)
    trace_payload = trace_check.pop("payload")
    args.trace_output.write_text(json.dumps(trace_payload) + "\n")
    print(
        f"   flits={trace_check['flits_delivered']} "
        f"traced={trace_check['traced_deliveries']} "
        f"complete={trace_check['all_lifecycles_complete']} "
        f"schema_ok=True ({trace_check['trace_bytes']:,} bytes)"
    )
    print(f"wrote {args.trace_output}")
    if not trace_check["ok"]:
        failures.append("trace export validation")

    print("== observability: churn span-tracing identity ==")
    churn_identity = churn_obs_identity()
    print(
        f"   sessions={churn_identity['summaries']['off']['arrivals']} "
        f"spans={churn_identity['spans']} "
        f"roots={churn_identity['span_roots']} "
        f"identical={churn_identity['identical']} "
        f"closed={churn_identity['spans_closed']} "
        f"schema_ok={churn_identity['trace_schema_ok']}"
    )
    if not churn_identity["ok"]:
        failures.append("churn span-tracing identity")

    sweep_measurement = None
    sweep_gated = False
    if not args.skip_sweep:
        print(f"== sweep parallelism: {args.sweep_jobs} jobs ==")
        sweep_measurement = measure_sweep_speedup(args.sweep_jobs)
        # The wall-clock gate only binds where the hardware can deliver
        # it; row identity must hold everywhere.
        sweep_gated = (os.cpu_count() or 1) >= args.sweep_jobs
        print(
            f"   serial={sweep_measurement['serial_seconds']:.2f}s  "
            f"parallel={sweep_measurement['parallel_seconds']:.2f}s  "
            f"speedup={sweep_measurement['speedup']:.2f}x  "
            f"cores={sweep_measurement['cpu_count']} "
            f"({'gated' if sweep_gated else 'recorded only'})"
        )
        if not sweep_measurement["rows_identical"]:
            failures.append("parallel sweep rows differ from serial rows")
        if sweep_gated and sweep_measurement["speedup"] < args.min_sweep_speedup:
            failures.append(
                f"sweep speedup {sweep_measurement['speedup']:.2f}x below "
                f"threshold {args.min_sweep_speedup}x on a "
                f"{sweep_measurement['cpu_count']}-core machine"
            )

    print("== ckpt identity: saturated-CBR single router (729 connections) ==")
    ckpt_router = run_ckpt_router_identity_check(args.ckpt_identity_cycles)
    print(
        f"   connections={ckpt_router['connections']} "
        f"flits={ckpt_router['flits_delivered']} "
        f"ckpt@{ckpt_router['checkpoint_cycle']} "
        f"payload_bytes={ckpt_router['checkpoint_bytes']:,} "
        f"identical={ckpt_router['identical']}"
    )
    if not ckpt_router["identical"]:
        failures.append("checkpoint identity (saturated single router)")

    ckpt_network = None
    if not args.skip_multihop:
        print("== ckpt identity: 12-node multihop network ==")
        ckpt_network = run_ckpt_network_identity_check()
        print(
            f"   streams={ckpt_network['streams']} "
            f"delay_count={ckpt_network['delay_count']} "
            f"ckpt@{ckpt_network['checkpoint_cycle']} "
            f"payload_bytes={ckpt_network['checkpoint_bytes']:,} "
            f"identical={ckpt_network['identical']}"
        )
        if not ckpt_network["identical"]:
            failures.append("checkpoint identity (multihop)")

    run_fabric_gates(args, failures)

    ckpt_report = {
        "schema": "bench-ckpt/2",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "manifest": build_manifest(command="scripts/perf_gate.py"),
        "identity": {
            "single_router": ckpt_router,
            "multihop": ckpt_network,
        },
    }
    args.ckpt_output.write_text(json.dumps(ckpt_report, indent=2) + "\n")
    print(f"wrote {args.ckpt_output}")

    sched_report = {
        "schema": "bench-sched/2",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "manifest": build_manifest(command="scripts/perf_gate.py"),
        "sweep": {
            "min_speedup": args.min_sweep_speedup,
            "gated": sweep_gated,
            "measurement": sweep_measurement,
        },
    }
    args.sched_output.write_text(json.dumps(sched_report, indent=2) + "\n")
    print(f"wrote {args.sched_output}")

    report = {
        "schema": "bench-kernel/3",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "manifest": build_manifest(command="scripts/perf_gate.py"),
        "observability": {
            "max_obs_overhead_pct": args.max_obs_overhead,
            "overhead": obs_overhead,
            "trace_validation": trace_check,
            "trace_artifact": str(args.trace_output),
            "churn_span_identity": churn_identity,
        },
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(
        "PASS: disabled recorder within "
        f"{args.max_obs_overhead}%, traces valid, tracing observes only, "
        "parallel sweep rows equal serial, checkpoint resume identical, "
        "fabric gates hold"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
