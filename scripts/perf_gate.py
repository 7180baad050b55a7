#!/usr/bin/env python
"""Kernel performance gate: identity first, then throughput.

Checks two claims about the activity-driven simulation kernel against the
legacy (seed) kernel and writes the evidence to ``BENCH_kernel.json`` so
every future PR has a perf trajectory to regress against:

1. **Identity** — on seeded runs the two kernels must be cycle-for-cycle
   identical: same delivered flits with the same creation/departure
   timestamps, same stats scalars, and (for the multihop check) the same
   end-to-end delay/jitter statistics across an irregular 12-node network
   with best-effort background traffic.
2. **Throughput** — on the 10%-link-load CBR point (one 124 Mbps stream
   through the 8x8 router, the operating point that isolates kernel
   overhead) the activity kernel must be at least ``--min-speedup`` times
   faster in simulated cycles per wall second.  The fully loaded variant
   (124 Mbps on every input port) is also measured and reported, gate
   free: with every port busy there is nothing to skip, so it documents
   the transparency cost of the activity machinery instead.
3. **Observability** — carrying a *disabled* flight recorder must cost
   less than ``--max-obs-overhead`` percent on both timed scenarios, and
   a recorder-on run must export a Chrome/Perfetto trace that validates
   against the trace-event schema with a complete inject/grant/deliver
   lifecycle for every delivered flit (written to ``--trace-output``).
   Control-plane span tracing must likewise be a pure observer: the same
   churn point with the recorder on must reproduce every workload metric
   of the recorder-off run bit-for-bit, while leaving fully closed,
   schema-valid span trees (one root per session attempt).

A second gate covers the bit-parallel scheduling fast path, recorded to
``BENCH_sched.json``:

4. **Scheduler identity** — the fused status-vector candidate walk
   (``scheduler_fast_path=True``) must deliver bit-identical flit streams
   and stats against the reference per-VC walk, on the saturated-CBR
   single-router scenario and on the multihop network.
5. **Scheduler throughput** — on the saturated-CBR scenario at the
   90%-load point the fast path must be at least ``--min-sched-speedup``
   times faster in cycles per wall second.
6. **Sweep parallelism** — ``run_sweep(..., jobs=N)`` must produce the
   same metric rows as a serial run, and must be at least
   ``--min-sweep-speedup`` times faster wall-clock when the machine
   actually has ``--sweep-jobs`` cores (recorded but not gated on
   smaller machines — a 1-core runner cannot exhibit the speedup).

A third gate covers the checkpoint/restore subsystem, recorded to
``BENCH_ckpt.json``:

7. **Checkpoint identity** — the saturated-CBR 90%-load single router
   (the 729-connection scenario) and the 12-node multihop network (with
   best-effort chatter in flight) run straight through vs
   checkpoint-at-midpoint / restore-from-disk / resume, and must produce
   bit-identical delivered-flit streams and statistics.  Every leg that
   writes a checkpoint (these two, and the columnar and network-arena
   round-trips with their flag flips) reports its ``payload_bytes``.

A fourth gate covers the columnar (NumPy) state engine, recorded to
``BENCH_columnar.json`` (schema ``bench-columnar/1``):

8. **Columnar identity** — ``columnar_state=True`` must deliver
   bit-identical flit streams and stats against both the reference walk
   and the fused scalar fast path on the 729-connection 90%-load single
   router and the 12-node multihop network, and must survive a
   checkpoint/restore round-trip including mid-run flag flips (columnar
   checkpoint resumed scalar, scalar checkpoint resumed columnar).
9. **Columnar throughput** — on the high-VC scenario (512 VCs per link,
   ~446 connections per input port of 2.5 Mbps CBR) the columnar engine
   must be at least ``--min-columnar-speedup`` times faster than the
   *current scalar fast path* (not the reference walk); the paper-default
   256-VC point is measured and recorded gate-free.  When NumPy is not
   installed the section records ``"numpy": false``, verifies the typed
   ``ColumnarUnavailableError``, and skips the gates without failing.

Run from the repo root::

    PYTHONPATH=src python scripts/perf_gate.py

Exits non-zero when an identity check fails or a gated speedup falls
below its threshold.
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
    HIGH_VC_COUNT,
    build_saturated_scenario,
    measure_columnar_cycles_per_second,
    measure_cycles_per_second,
    measure_obs_overhead,
    measure_sched_cycles_per_second,
    measure_sweep_speedup,
    run_columnar_identity_check,
    run_identity_check,
    run_sched_identity_check,
    run_trace_validation,
)
from repro.ckpt.verify import (  # noqa: E402
    run_ckpt_arena_identity_check,
    run_ckpt_columnar_identity_check,
    run_ckpt_network_identity_check,
    run_ckpt_router_identity_check,
)
from repro.core.columnar import (  # noqa: E402
    ColumnarUnavailableError,
    numpy_available,
)
from repro.obs import build_manifest, validate_chrome_trace  # noqa: E402
from repro.harness.churn import ChurnSpec, run_churn_experiment  # noqa: E402
from repro.harness.network_experiment import (  # noqa: E402
    NetworkExperiment,
    NetworkExperimentSpec,
    attach_delivery_log,
    run_network_experiment,
)


def _network_summary(result) -> dict:
    return {
        "streams": result.streams,
        "attempts": result.attempts,
        "mean_hops": result.mean_hops,
        "delay_count": result.delay_cycles.count,
        "delay_mean": result.delay_cycles.mean,
        "delay_min": result.delay_cycles.minimum,
        "delay_max": result.delay_cycles.maximum,
        "jitter_count": result.jitter_cycles.count,
        "jitter_mean": result.jitter_cycles.mean,
        "by_hops": {str(k): v for k, v in result.by_hops.items()},
        "best_effort_delivered": result.best_effort_delivered,
    }


def multihop_identity(seed: int = 11) -> dict:
    """Compare end-to-end QoS statistics across kernels on a network run."""
    summaries = {}
    for mode in (False, True):
        spec = NetworkExperimentSpec(
            target_link_load=0.3,
            best_effort_rate=0.5,
            warmup_cycles=2000,
            measure_cycles=8000,
            seed=seed,
            allow_fast_forward=mode,
        )
        summaries[mode] = _network_summary(run_network_experiment(spec))
    return {
        "identical": summaries[False] == summaries[True],
        "seed": seed,
        "legacy": summaries[False],
        "activity": summaries[True],
    }


def sched_multihop_identity(seed: int = 11) -> dict:
    """Compare end-to-end QoS across scheduler paths on a network run.

    Same workload as :func:`multihop_identity` (including best-effort
    background traffic, which exercises the routed-bit transitions of
    blocked packets), toggling ``scheduler_fast_path`` instead of the
    kernel mode.
    """
    summaries = {}
    for fast_path in (False, True):
        spec = NetworkExperimentSpec(
            target_link_load=0.3,
            best_effort_rate=0.5,
            warmup_cycles=2000,
            measure_cycles=8000,
            seed=seed,
            scheduler_fast_path=fast_path,
        )
        summaries[fast_path] = _network_summary(run_network_experiment(spec))
    return {
        "identical": summaries[False] == summaries[True],
        "seed": seed,
        "reference": summaries[False],
        "fast_path": summaries[True],
    }


def columnar_multihop_identity(seed: int = 11) -> dict:
    """Compare end-to-end QoS across state engines on a network run.

    Same 12-node workload as :func:`sched_multihop_identity` (including
    best-effort background traffic), toggling ``columnar_state`` with
    the scheduler fast path on in both legs.
    """
    summaries = {}
    for columnar in (False, True):
        spec = NetworkExperimentSpec(
            target_link_load=0.3,
            best_effort_rate=0.5,
            warmup_cycles=2000,
            measure_cycles=8000,
            seed=seed,
            columnar_state=columnar,
        )
        summaries[columnar] = _network_summary(run_network_experiment(spec))
    return {
        "identical": summaries[False] == summaries[True],
        "seed": seed,
        "scalar": summaries[False],
        "columnar": summaries[True],
    }


def columnar_unavailable_check() -> dict:
    """Without NumPy the typed error must name the extra; nothing else breaks."""
    try:
        build_saturated_scenario(True, columnar_state=True)
    except ColumnarUnavailableError as exc:
        return {"typed_error_ok": True, "message": str(exc)}
    return {"typed_error_ok": False, "message": "no error raised"}


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


def run_columnar_gates(args, failures) -> dict:
    """Gates 8 & 9: columnar identity + throughput (BENCH_columnar.json).

    Self-contained so ``--columnar-only`` (the CI columnar-smoke job,
    run under both NumPy and NumPy-free environments) can execute just
    this section.  Appends failure strings to ``failures`` and writes
    the ``bench-columnar/1`` report to ``args.columnar_output``.
    """
    columnar_available = numpy_available()
    columnar_identity = None
    columnar_network_identity = None
    columnar_ckpt = None
    columnar_throughput = None
    columnar_unavailable = None
    columnar_gate_passed = None
    if not columnar_available:
        print("== columnar: NumPy not installed ==")
        columnar_unavailable = columnar_unavailable_check()
        print(
            f"   typed_error_ok={columnar_unavailable['typed_error_ok']} "
            "(identity and speedup gates skipped)"
        )
        if not columnar_unavailable["typed_error_ok"]:
            failures.append(
                "columnar_state=True without NumPy did not raise "
                "ColumnarUnavailableError"
            )
    else:
        print("== columnar identity: saturated-CBR single router (3-way) ==")
        columnar_identity = run_columnar_identity_check(
            args.columnar_identity_cycles
        )
        print(
            f"   flits={columnar_identity['flits_delivered']} "
            f"identical={columnar_identity['identical']}"
        )
        if not columnar_identity["identical"]:
            failures.append("columnar identity (single router)")

        if not args.skip_multihop:
            print("== columnar identity: 12-node multihop network ==")
            columnar_network_identity = columnar_multihop_identity()
            print(
                f"   streams={columnar_network_identity['scalar']['streams']} "
                f"delay_count="
                f"{columnar_network_identity['scalar']['delay_count']} "
                f"identical={columnar_network_identity['identical']}"
            )
            if not columnar_network_identity["identical"]:
                failures.append("columnar identity (multihop)")

        print("== columnar identity: checkpoint round-trip + flag flips ==")
        columnar_ckpt = run_ckpt_columnar_identity_check(
            args.ckpt_identity_cycles
        )
        print(
            f"   connections={columnar_ckpt['connections']} "
            f"flits={columnar_ckpt['flits_delivered']} "
            f"resumed={columnar_ckpt['columnar_resumed_identical']} "
            f"flip_off={columnar_ckpt['flip_off_identical']} "
            f"flip_on={columnar_ckpt['flip_on_identical']} "
            f"payload_bytes={columnar_ckpt['checkpoint_bytes']} "
            f"identical={columnar_ckpt['identical']}"
        )
        if not columnar_ckpt["identical"]:
            failures.append("columnar checkpoint identity")

        print(f"== columnar throughput: {HIGH_VC_COUNT}-VC high-VC scenario ==")
        columnar_scalar = measure_columnar_cycles_per_second(
            False, args.columnar_bench_cycles, args.repeats
        )
        columnar_fast = measure_columnar_cycles_per_second(
            True, args.columnar_bench_cycles, args.repeats
        )
        columnar_speedup = (
            columnar_fast["cycles_per_sec"] / columnar_scalar["cycles_per_sec"]
        )
        columnar_gate_passed = columnar_speedup >= args.min_columnar_speedup
        print(
            f"   scalar_fast={columnar_scalar['cycles_per_sec']:,.0f} cyc/s  "
            f"columnar={columnar_fast['cycles_per_sec']:,.0f} cyc/s  "
            f"speedup={columnar_speedup:.2f}x"
        )
        if not columnar_gate_passed:
            failures.append(
                f"columnar speedup {columnar_speedup:.2f}x below "
                f"threshold {args.min_columnar_speedup}x"
            )

        print("== columnar throughput: 256-VC paper point (recorded only) ==")
        base_scalar = measure_columnar_cycles_per_second(
            False, args.columnar_bench_cycles, 3, vcs_per_port=256
        )
        base_columnar = measure_columnar_cycles_per_second(
            True, args.columnar_bench_cycles, 3, vcs_per_port=256
        )
        base_speedup = (
            base_columnar["cycles_per_sec"] / base_scalar["cycles_per_sec"]
        )
        print(
            f"   scalar_fast={base_scalar['cycles_per_sec']:,.0f} cyc/s  "
            f"columnar={base_columnar['cycles_per_sec']:,.0f} cyc/s  "
            f"speedup={base_speedup:.2f}x"
        )
        columnar_throughput = {
            "high_vc": {
                "vcs_per_port": HIGH_VC_COUNT,
                "scalar_fast": columnar_scalar,
                "columnar": columnar_fast,
                "speedup": columnar_speedup,
            },
            "paper_256vc": {
                "vcs_per_port": 256,
                "scalar_fast": base_scalar,
                "columnar": base_columnar,
                "speedup": base_speedup,
            },
        }

    columnar_report = {
        "schema": "bench-columnar/1",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "manifest": build_manifest(command="scripts/perf_gate.py"),
        "numpy": columnar_available,
        "unavailable": columnar_unavailable,
        "identity": {
            "single_router": columnar_identity,
            "multihop": columnar_network_identity,
            "checkpoint": columnar_ckpt,
        },
        "gate": {
            "scenario": f"cbr_high_vc_{HIGH_VC_COUNT}",
            "min_speedup": args.min_columnar_speedup,
            "speedup": (
                round(columnar_throughput["high_vc"]["speedup"], 3)
                if columnar_throughput
                else None
            ),
            "passed": columnar_gate_passed,
        },
        "throughput": columnar_throughput,
    }
    args.columnar_output.write_text(json.dumps(columnar_report, indent=2) + "\n")
    print(f"wrote {args.columnar_output}")
    return columnar_report


def arena_network_identity(
    topology: str,
    routing: str,
    seed: int = 11,
    warmup: int = 1000,
    measure: int = 4000,
    best_effort: float = 0.5,
) -> dict:
    """Delivered-flit-stream + stats identity: arena vs object graph.

    Stronger than the summary-only multihop checks: every delivered flit
    is fingerprinted ``(cycle, node, port, connection, sequence,
    created)`` in delivery order, so a single reordered or retimed flit
    fails the gate even if the aggregate statistics happen to agree.
    """
    logs = {}
    summaries = {}
    for arena in (False, True):
        spec = NetworkExperimentSpec(
            target_link_load=0.3,
            best_effort_rate=best_effort,
            warmup_cycles=warmup,
            measure_cycles=measure,
            seed=seed,
            topology=topology,
            routing=routing,
            network_arena=arena,
        )
        experiment = NetworkExperiment(spec)
        logs[arena] = attach_delivery_log(experiment)
        summaries[arena] = _network_summary(experiment.result())
    flits_identical = logs[False] == logs[True]
    stats_identical = summaries[False] == summaries[True]
    return {
        "identical": flits_identical and stats_identical,
        "flits_identical": flits_identical,
        "stats_identical": stats_identical,
        "flits_delivered": len(logs[False]),
        "topology": topology,
        "routing": routing,
        "seed": seed,
        "baseline": summaries[False],
        "arena": summaries[True],
    }


def measure_network_cycles_per_second(
    spec: NetworkExperimentSpec, cycles: int, repeats: int
) -> dict:
    """Best-of-repeats steady-state simulation rate of one network point.

    The cluster is built and warmed once; each repeat times a fresh
    window of ``cycles`` on the same live simulation (steady-state CBR,
    so cycles/sec is a rate and windows are comparable).
    """
    import gc
    import time

    experiment = NetworkExperiment(spec)
    experiment.run_to(min(spec.warmup_cycles, experiment.total_cycles))
    best = 0.0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            start = experiment.sim.now
            begin = time.perf_counter()
            experiment.sim.run(cycles)
            elapsed = time.perf_counter() - begin
            best = max(best, (experiment.sim.now - start) / elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "cycles_per_sec": best,
        "cycles": cycles,
        "repeats": repeats,
        "num_nodes": experiment.topology.num_nodes,
        "streams": len(experiment.streams),
    }


def _topo_point_spec(
    topology: str,
    arena: bool,
    load: float = 0.002,
    seed: int = 5,
    warmup: int = 500,
    allow_fast_forward: bool = True,
) -> NetworkExperimentSpec:
    return NetworkExperimentSpec(
        target_link_load=load,
        warmup_cycles=warmup,
        measure_cycles=warmup,
        seed=seed,
        topology=topology,
        routing="dimension_order",
        network_arena=arena,
        allow_fast_forward=allow_fast_forward,
    )


def arena_unavailable_check() -> dict:
    """Without NumPy the arena must raise the typed error at build time."""
    try:
        NetworkExperiment(
            NetworkExperimentSpec(
                target_link_load=0.2,
                topology="mesh3x3",
                warmup_cycles=50,
                measure_cycles=50,
                network_arena=True,
            )
        )
    except ColumnarUnavailableError as exc:
        return {"typed_error_ok": True, "message": str(exc)}
    return {"typed_error_ok": False, "message": "no error raised"}


def run_topo_gates(args, failures) -> dict:
    """Topology-scaling gates: arena identity + throughput (BENCH_topo.json).

    Self-contained so ``--topo-only`` (the CI topo-smoke job, run under
    both NumPy and NumPy-free environments) can execute just this
    section.  Gates:

    * delivered-flit-stream identity, arena on vs off, on the 12-node
      irregular network (adaptive routing) and an 8x8 mesh (dimension
      order + best effort);
    * the arena checkpoint round-trip with mid-run flag flips;
    * wake-driven kernel >= ``--min-topo-speedup`` x the legacy kernel
      (every ticker every cycle) at a sparse 16x16 torus point;
    * a cycles/sec-vs-node-count scaling curve (mesh and torus at 64 /
      256 / 1024 nodes) with the 32x32 saturation point recorded;
    * disabled-recorder overhead < ``--max-obs-overhead`` %% on an
      arena run (the telemetry early-out satellite).
    """
    available = numpy_available()
    identity = None
    arena_ckpt = None
    throughput = None
    scaling = None
    obs = None
    unavailable = None
    gate_passed = None
    obs_ok = None
    if not available:
        print("== topo: NumPy not installed ==")
        unavailable = arena_unavailable_check()
        print(
            f"   typed_error_ok={unavailable['typed_error_ok']} "
            "(identity and speedup gates skipped)"
        )
        if not unavailable["typed_error_ok"]:
            failures.append(
                "network_arena=True without NumPy did not raise "
                "ColumnarUnavailableError"
            )
    else:
        identity = {}
        for label, topology, routing in (
            ("irregular_12", "irregular", "adaptive"),
            ("mesh8x8", "mesh8x8", "dimension_order"),
        ):
            print(f"== topo identity: {label} arena vs object graph ==")
            check = arena_network_identity(
                topology, routing, measure=args.topo_identity_cycles
            )
            identity[label] = check
            print(
                f"   flits={check['flits_delivered']} "
                f"streams={check['baseline']['streams']} "
                f"identical={check['identical']}"
            )
            if not check["identical"]:
                failures.append(f"arena identity ({label})")

        print("== topo identity: arena checkpoint round-trip + flag flips ==")
        arena_ckpt = run_ckpt_arena_identity_check(
            measure=args.topo_identity_cycles
        )
        print(
            f"   streams={arena_ckpt['streams']} "
            f"resumed={arena_ckpt['arena_resumed_identical']} "
            f"flip_off={arena_ckpt['flip_off_identical']} "
            f"flip_on={arena_ckpt['flip_on_identical']} "
            f"payload_bytes={arena_ckpt['checkpoint_bytes']} "
            f"identical={arena_ckpt['identical']}"
        )
        if not arena_ckpt["identical"]:
            failures.append("arena checkpoint identity")

        # The gate point is the wake-driven kernel's home turf: sparse
        # steady traffic crossing a 256-node fabric, where the legacy
        # kernel (the baseline leg) ticks every router every cycle but
        # the awake list holds only the handful on active paths.  The
        # wake mask is the default kernel's, so arena on against arena
        # off would compare two fast runs; the "arena" leg is the default
        # kernel with pooled banks.  (At saturation the busy routers' own
        # work dominates both kernels — the scaling section records that.)
        print("== topo throughput: 16x16 torus (256 nodes), sparse ==")
        baseline = measure_network_cycles_per_second(
            _topo_point_spec(
                "torus16x16", False, load=0.001, allow_fast_forward=False
            ),
            args.topo_bench_cycles,
            args.repeats,
        )
        arena = measure_network_cycles_per_second(
            _topo_point_spec("torus16x16", True, load=0.001),
            args.topo_bench_cycles,
            args.repeats,
        )
        speedup = arena["cycles_per_sec"] / baseline["cycles_per_sec"]
        gate_passed = speedup >= args.min_topo_speedup
        print(
            f"   legacy kernel={baseline['cycles_per_sec']:,.0f} cyc/s  "
            f"wake-driven={arena['cycles_per_sec']:,.0f} cyc/s  "
            f"speedup={speedup:.2f}x"
        )
        if not gate_passed:
            failures.append(
                f"wake-driven speedup {speedup:.2f}x below threshold "
                f"{args.min_topo_speedup}x at torus16x16"
            )
        throughput = {
            "scenario": "torus16x16_dor_sparse",
            "target_link_load": 0.001,
            "baseline": baseline,
            "arena": arena,
            "speedup": speedup,
        }

        print("== topo scaling: cycles/sec vs node count (arena) ==")
        scaling = {"points": []}
        for kind in ("mesh", "torus"):
            for side in (8, 16, 32):
                name = f"{kind}{side}x{side}"
                point = measure_network_cycles_per_second(
                    _topo_point_spec(name, True),
                    args.topo_scaling_cycles,
                    max(2, args.repeats - 2),
                )
                entry = {
                    "topology": name,
                    "num_nodes": side * side,
                    "streams": point["streams"],
                    "cycles_per_sec": point["cycles_per_sec"],
                }
                print(
                    f"   {name:<10} nodes={entry['num_nodes']:<5} "
                    f"streams={entry['streams']:<5} "
                    f"{entry['cycles_per_sec']:,.0f} cyc/s"
                )
                scaling["points"].append(entry)
        # The 1024-node saturation point: load the 32x32 torus until
        # admission saturates and record what the cluster sustains.
        print("== topo scaling: 32x32 torus saturation point ==")
        sat_spec = NetworkExperimentSpec(
            target_link_load=0.9,
            warmup_cycles=300,
            measure_cycles=args.topo_scaling_cycles,
            seed=5,
            topology="torus32x32",
            routing="dimension_order",
            network_arena=True,
        )
        sat_experiment = NetworkExperiment(sat_spec)
        sat_rate = measure_network_cycles_per_second(
            sat_spec, args.topo_scaling_cycles, 2
        )
        sat_result = sat_experiment.result()
        scaling["saturation_32x32"] = {
            "topology": "torus32x32",
            "num_nodes": 1024,
            "streams": sat_result.streams,
            "attempts": sat_result.attempts,
            "acceptance_ratio": sat_result.acceptance_ratio,
            "mean_hops": sat_result.mean_hops,
            "mean_delay_cycles": sat_result.delay_cycles.mean,
            "mean_jitter_cycles": sat_result.jitter_cycles.mean,
            "cycles_per_sec": sat_rate["cycles_per_sec"],
        }
        print(
            f"   streams={sat_result.streams} "
            f"acceptance={sat_result.acceptance_ratio:.2f} "
            f"delay={sat_result.delay_cycles.mean:.1f}cyc "
            f"{sat_rate['cycles_per_sec']:,.0f} cyc/s"
        )

        print("== topo observability: disabled recorder on an arena run ==")
        plain_spec = _topo_point_spec("mesh8x8", True, load=0.3)
        disabled_spec = NetworkExperimentSpec(
            target_link_load=plain_spec.target_link_load,
            warmup_cycles=plain_spec.warmup_cycles,
            measure_cycles=plain_spec.measure_cycles,
            seed=plain_spec.seed,
            topology=plain_spec.topology,
            routing=plain_spec.routing,
            network_arena=True,
            telemetry=True,
        )
        import gc
        import time

        def timed(spec, disable_recorder):
            experiment = NetworkExperiment(spec)
            if disable_recorder:
                experiment.recorder.set_enabled(False)
            experiment.run_to(spec.warmup_cycles)
            best = 0.0
            gc.disable()
            try:
                for _ in range(max(args.repeats, 9)):
                    start = experiment.sim.now
                    begin = time.perf_counter()
                    experiment.sim.run(args.topo_bench_cycles)
                    elapsed = time.perf_counter() - begin
                    best = max(best, (experiment.sim.now - start) / elapsed)
            finally:
                gc.enable()
            return best

        base_rate = timed(plain_spec, False)
        disabled_rate = timed(disabled_spec, True)
        overhead_pct = (base_rate - disabled_rate) / base_rate * 100.0
        obs_ok = overhead_pct <= args.max_obs_overhead
        obs = {
            "scenario": "mesh8x8_arena",
            "baseline_cycles_per_sec": base_rate,
            "disabled_cycles_per_sec": disabled_rate,
            "overhead_pct": overhead_pct,
            "max_obs_overhead_pct": args.max_obs_overhead,
            "passed": obs_ok,
        }
        print(
            f"   baseline={base_rate:,.0f} cyc/s  "
            f"disabled={disabled_rate:,.0f} cyc/s  "
            f"overhead={overhead_pct:+.2f}%"
        )
        if not obs_ok:
            failures.append(
                f"disabled-recorder overhead {overhead_pct:.2f}% on the "
                f"arena run above {args.max_obs_overhead}%"
            )

    topo_report = {
        "schema": "bench-topo/1",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "manifest": build_manifest(command="scripts/perf_gate.py"),
        "numpy": available,
        "unavailable": unavailable,
        "identity": {
            "networks": identity,
            "checkpoint": arena_ckpt,
        },
        "gate": {
            "scenario": "torus16x16_dor_sparse",
            "min_speedup": args.min_topo_speedup,
            "speedup": (
                round(throughput["speedup"], 3) if throughput else None
            ),
            "passed": gate_passed,
        },
        "throughput": throughput,
        "scaling": scaling,
        "observability": obs,
    }
    args.topo_output.write_text(json.dumps(topo_report, indent=2) + "\n")
    print(f"wrote {args.topo_output}")
    return topo_report


def run_fabric_gates(args, failures) -> dict:
    """Distributed-fabric gates: cache + crash requeue (BENCH_fabric.json).

    Self-contained so ``--fabric-only`` (the CI fabric-smoke job, run
    under both NumPy and NumPy-free environments — the fabric is pure
    Python) can execute just this section.  Four legs over one small
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
            "schema": "bench-fabric/1",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "manifest": build_manifest(command="scripts/perf_gate.py"),
            "numpy": numpy_available(),
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
        help="timing repeats per kernel; best is reported (default 5)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="gate threshold on the 10%%-load point (default 3.0)",
    )
    parser.add_argument(
        "--identity-cycles", type=int, default=60_000,
        help="cycles for the single-router identity runs (default 60000)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_kernel.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--skip-multihop", action="store_true",
        help="skip the (slower) multihop identity check",
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
        "--sched-cycles", type=int, default=10_000,
        help="simulated cycles per scheduler timing run (default 10000)",
    )
    parser.add_argument(
        "--sched-identity-cycles", type=int, default=8_000,
        help="cycles for the saturated-CBR scheduler identity run (default 8000)",
    )
    parser.add_argument(
        "--min-sched-speedup", type=float, default=1.5,
        help="gate threshold on the saturated-CBR 90%%-load point (default 1.5)",
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
        help="where to write the scheduler-gate JSON report",
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
        "--columnar-identity-cycles", type=int, default=8_000,
        help="cycles for the columnar identity runs (default 8000)",
    )
    parser.add_argument(
        "--columnar-bench-cycles", type=int, default=8_000,
        help="simulated cycles per columnar timing run (default 8000; "
             "short windows under-read the speedup because the "
             "connection ramp-up, where few VCs are eligible, is shared "
             "by both engines)",
    )
    parser.add_argument(
        "--min-columnar-speedup", type=float, default=2.0,
        help="gate threshold on the 512-VC high-VC point (default 2.0)",
    )
    parser.add_argument(
        "--columnar-output", type=Path,
        default=REPO_ROOT / "BENCH_columnar.json",
        help="where to write the columnar-gate JSON report",
    )
    parser.add_argument(
        "--columnar-only", action="store_true",
        help="run only the columnar gates (identity + throughput, or the "
             "typed-error check when NumPy is absent); used by the CI "
             "columnar-smoke job's NumPy / no-NumPy matrix",
    )
    parser.add_argument(
        "--topo-identity-cycles", type=int, default=4_000,
        help="measure cycles for the arena identity runs (default 4000)",
    )
    parser.add_argument(
        "--topo-bench-cycles", type=int, default=2_000,
        help="simulated cycles per arena timing window (default 2000)",
    )
    parser.add_argument(
        "--min-topo-speedup", type=float, default=3.0,
        help="gate threshold, wake-driven over legacy kernel, on the "
             "sparse 16x16 torus point (default 3.0)",
    )
    parser.add_argument(
        "--topo-scaling-cycles", type=int, default=1_000,
        help="cycles per point of the node-count scaling curve "
             "(default 1000; the 32x32 points step 1024 routers each)",
    )
    parser.add_argument(
        "--topo-output", type=Path,
        default=REPO_ROOT / "BENCH_topo.json",
        help="where to write the topology-scaling JSON report",
    )
    parser.add_argument(
        "--topo-only", action="store_true",
        help="run only the topology-scaling gates (arena identity + "
             "throughput + scaling curve, or the typed-error check when "
             "NumPy is absent); used by the CI topo-smoke job",
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
             "checkpoint-resume identity); used by the CI fabric-smoke "
             "job's NumPy / no-NumPy matrix (the fabric is pure Python)",
    )
    args = parser.parse_args(argv)
    if args.cycles <= 0 or args.identity_cycles <= 0 or args.repeats <= 0:
        parser.error("--cycles, --identity-cycles and --repeats must be positive")

    failures = []

    if args.columnar_only:
        columnar_report = run_columnar_gates(args, failures)
        if failures:
            print("FAIL: " + "; ".join(failures))
            return 1
        gate = columnar_report["gate"]
        note = (
            f"identity holds, columnar {gate['speedup']:.2f}x >= "
            f"{gate['min_speedup']}x"
            if gate["speedup"] is not None
            else "typed-error path verified (no NumPy)"
        )
        print(f"PASS: columnar {note}")
        return 0

    if args.topo_only:
        topo_report = run_topo_gates(args, failures)
        if failures:
            print("FAIL: " + "; ".join(failures))
            return 1
        gate = topo_report["gate"]
        note = (
            f"identity holds, wake-driven {gate['speedup']:.2f}x >= "
            f"{gate['min_speedup']}x at torus16x16"
            if gate["speedup"] is not None
            else "typed-error path verified (no NumPy)"
        )
        print(f"PASS: topo {note}")
        return 0

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

    print("== identity: 8-stream single router ==")
    router_identity = run_identity_check(8, args.identity_cycles)
    print(
        f"   flits={router_identity['flits_delivered']} "
        f"identical={router_identity['identical']} "
        f"ff={router_identity['fast_forwarded_fraction']:.1%}"
    )
    if not router_identity["identical"]:
        failures.append("single-router identity")
    if router_identity["legacy_fast_forwarded"] != 0:
        failures.append("legacy kernel fast-forwarded")

    network_identity = None
    if not args.skip_multihop:
        print("== identity: 12-node multihop network ==")
        network_identity = multihop_identity()
        print(
            f"   streams={network_identity['legacy']['streams']} "
            f"delay_count={network_identity['legacy']['delay_count']} "
            f"identical={network_identity['identical']}"
        )
        if not network_identity["identical"]:
            failures.append("multihop identity")

    scenarios = {}
    for name, connections, activity_cycle_factor in (
        ("cbr_10pct_single_stream", 1, 5),
        ("cbr_10pct_all_ports", 8, 1),
    ):
        print(f"== throughput: {name} ==")
        # Both kernels are timed in steady state, so cycles/sec is a rate
        # and the two runs need not simulate the same number of cycles.
        # The activity kernel gets proportionally more cycles so each
        # timed run covers comparable *wall time* — short runs are what
        # machine-noise bursts distort most.
        legacy = measure_cycles_per_second(
            False, connections, args.cycles, args.repeats
        )
        activity = measure_cycles_per_second(
            True, connections, args.cycles * activity_cycle_factor, args.repeats
        )
        speedup = activity["cycles_per_sec"] / legacy["cycles_per_sec"]
        scenarios[name] = {
            "connections": connections,
            "legacy": legacy,
            "activity": activity,
            "speedup": speedup,
        }
        print(
            f"   legacy={legacy['cycles_per_sec']:,.0f} cyc/s  "
            f"activity={activity['cycles_per_sec']:,.0f} cyc/s  "
            f"speedup={speedup:.2f}x  "
            f"ff={activity['fast_forwarded_fraction']:.1%}"
        )

    gate_speedup = scenarios["cbr_10pct_single_stream"]["speedup"]
    gate_passed = gate_speedup >= args.min_speedup
    if not gate_passed:
        failures.append(
            f"speedup {gate_speedup:.2f}x below threshold {args.min_speedup}x"
        )

    obs_overhead = {}
    for name, connections, cycle_factor in (
        # The fast-forwarding single-stream scenario gets proportionally
        # more cycles (as in the throughput section) so each timed slice
        # is long enough for a sub-2% comparison to be meaningful; repeats
        # are floored at 9 (72 slice pairs) because pair count, not run
        # length, is what bounds the residual noise here.
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

    print("== sched identity: saturated-CBR single router ==")
    sched_identity = run_sched_identity_check(args.sched_identity_cycles)
    print(
        f"   flits={sched_identity['flits_delivered']} "
        f"identical={sched_identity['identical']}"
    )
    if not sched_identity["identical"]:
        failures.append("scheduler fast-path identity (single router)")

    sched_network_identity = None
    if not args.skip_multihop:
        print("== sched identity: 12-node multihop network ==")
        sched_network_identity = sched_multihop_identity()
        print(
            f"   streams={sched_network_identity['reference']['streams']} "
            f"delay_count={sched_network_identity['reference']['delay_count']} "
            f"identical={sched_network_identity['identical']}"
        )
        if not sched_network_identity["identical"]:
            failures.append("scheduler fast-path identity (multihop)")

    print("== sched throughput: saturated CBR at 90% load ==")
    sched_reference = measure_sched_cycles_per_second(
        False, args.sched_cycles, args.repeats
    )
    sched_fast = measure_sched_cycles_per_second(
        True, args.sched_cycles, args.repeats
    )
    sched_speedup = sched_fast["cycles_per_sec"] / sched_reference["cycles_per_sec"]
    sched_gate_passed = sched_speedup >= args.min_sched_speedup
    print(
        f"   reference={sched_reference['cycles_per_sec']:,.0f} cyc/s  "
        f"fast={sched_fast['cycles_per_sec']:,.0f} cyc/s  "
        f"speedup={sched_speedup:.2f}x"
    )
    if not sched_gate_passed:
        failures.append(
            f"scheduler speedup {sched_speedup:.2f}x below "
            f"threshold {args.min_sched_speedup}x"
        )

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

    columnar_report = run_columnar_gates(args, failures)
    topo_report = run_topo_gates(args, failures)
    run_fabric_gates(args, failures)

    ckpt_report = {
        "schema": "bench-ckpt/1",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "manifest": build_manifest(command="scripts/perf_gate.py"),
        "identity": {
            "single_router": ckpt_router,
            "multihop": ckpt_network,
            "columnar": columnar_report["identity"]["checkpoint"],
            "arena": topo_report["identity"]["checkpoint"],
        },
    }
    args.ckpt_output.write_text(json.dumps(ckpt_report, indent=2) + "\n")
    print(f"wrote {args.ckpt_output}")

    sched_report = {
        "schema": "bench-sched/1",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "manifest": build_manifest(command="scripts/perf_gate.py"),
        "identity": {
            "single_router": sched_identity,
            "multihop": sched_network_identity,
        },
        "gate": {
            "scenario": "cbr_saturated_90pct",
            "min_speedup": args.min_sched_speedup,
            "speedup": round(sched_speedup, 3),
            "passed": sched_gate_passed,
        },
        "throughput": {
            "reference": sched_reference,
            "fast_path": sched_fast,
            "speedup": sched_speedup,
        },
        "sweep": {
            "min_speedup": args.min_sweep_speedup,
            "gated": sweep_gated,
            "measurement": sweep_measurement,
        },
    }
    args.sched_output.write_text(json.dumps(sched_report, indent=2) + "\n")
    print(f"wrote {args.sched_output}")

    report = {
        "schema": "bench-kernel/2",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "manifest": build_manifest(command="scripts/perf_gate.py"),
        "identity": {
            "single_router": router_identity,
            "multihop": network_identity,
        },
        "gate": {
            "scenario": "cbr_10pct_single_stream",
            "min_speedup": args.min_speedup,
            "speedup": round(gate_speedup, 3),
            "passed": gate_passed,
        },
        "scenarios": scenarios,
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
    columnar_speedup = columnar_report["gate"]["speedup"]
    columnar_note = (
        f"columnar {columnar_speedup:.2f}x >= {args.min_columnar_speedup}x"
        if columnar_speedup is not None
        else "columnar skipped (no NumPy)"
    )
    topo_speedup = topo_report["gate"]["speedup"]
    topo_note = (
        f"wake-driven {topo_speedup:.2f}x >= {args.min_topo_speedup}x"
        if topo_speedup is not None
        else "topo skipped (no NumPy)"
    )
    print(
        f"PASS: identity holds (kernel, scheduler, checkpoint, columnar, "
        f"arena), "
        f"kernel {gate_speedup:.2f}x >= {args.min_speedup}x, "
        f"scheduler {sched_speedup:.2f}x >= {args.min_sched_speedup}x, "
        f"{columnar_note}, {topo_note}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
