"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — one point of the single-router evaluation grid (or several
  loads fanned out over ``--jobs`` worker processes).
* ``sweep`` — a cartesian design-space sweep (``--axis name=v1,v2,...``)
  over spec or router-config parameters, optionally parallel.
* ``figures`` — regenerate Figure 3/4/5 tables (alias for
  ``python -m repro.harness.figures``).
* ``saturation`` — bisect a scheduler variant's saturation load.
* ``obs`` — run a point with the flight recorder on and export the
  telemetry, kernel profile and Perfetto-loadable flit trace.
* ``churn`` — open-loop session-churn workload over the probe protocol,
  with optional ``--slo`` budgets (breach exits 2), health-snapshot
  trails and a ``--report-out`` HTML dashboard.
* ``report`` — render the run-health dashboard (or a sweep rollup page)
  from previously exported health/export artefacts.
* ``ckpt`` — checkpoint tooling (``ckpt inspect <file>`` dumps a
  checkpoint's header and per-component sizes without unpickling it).
* ``info`` — print the paper configuration's derived quantities.

``run`` accepts ``--checkpoint-every N --checkpoint-out PATH`` to write
periodic checkpoints, and ``--resume-from PATH`` to continue a run from
its latest checkpoint — results are bit-identical to a straight run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from .ckpt.codec import CKPT_SCHEMA, CheckpointCodec, CheckpointError
from .core.config import RouterConfig
from .harness.churn import ChurnSpec, run_churn_experiment
from .harness.figures import main as figures_main
from .harness.network_experiment import (
    NetworkExperimentSpec,
    run_network_experiment,
)
from .harness.export import write_trace_json
from .harness.report import format_kernel_profile, format_telemetry
from .harness.saturation import find_saturation_load
from .harness.single_router import (
    PAPER_CONFIG,
    SCHEDULERS,
    ExperimentSpec,
    run_single_router_experiment,
)
from .harness.sweep import Checkpointing, SweepAxis, run_sweep
from .obs.health import merge_health, read_health
from .obs.report import render_report, render_rollup
from .obs.slo import SloBudget

#: Field names an ``--axis`` may target, and where each one lives.
_SPEC_FIELDS = {f.name for f in dataclasses.fields(ExperimentSpec)}
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RouterConfig)}
_CHURN_FIELDS = {f.name for f in dataclasses.fields(ChurnSpec)}
_NETWORK_FIELDS = {f.name for f in dataclasses.fields(NetworkExperimentSpec)}


def _add_spec_arguments(
    parser: argparse.ArgumentParser, multi_load: bool = False
) -> None:
    if multi_load:
        parser.add_argument(
            "--load", type=float, nargs="+", default=[0.8], metavar="LOAD",
            help="offered load(s); several values fan out over --jobs",
        )
    else:
        parser.add_argument("--load", type=float, default=0.8, help="offered load")
    parser.add_argument(
        "--scheduler", choices=SCHEDULERS, default="greedy",
        help="switch scheduler variant",
    )
    parser.add_argument(
        "--priority", default="biased",
        help="priority scheme: biased, fixed, age, rate, static, frozen",
    )
    parser.add_argument("--candidates", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--warmup", type=int, default=20000, help="warm-up cycles")
    parser.add_argument("--cycles", type=int, default=100000, help="measured cycles")


def _add_network_arguments(parser: argparse.ArgumentParser) -> None:
    """Cluster-shape options shared by ``network`` and ``sweep --network``."""
    parser.add_argument(
        "--link-load", type=float, default=0.4,
        help="target mean router-to-router link utilisation",
    )
    parser.add_argument(
        "--nodes", type=int, default=12,
        help="node count (irregular topology only)",
    )
    parser.add_argument(
        "--best-effort", type=float, default=0.0,
        help="best-effort packets per node per 100 cycles",
    )
    parser.add_argument(
        "--topology", default="irregular", metavar="NAME",
        help="irregular (default), mesh<W>x<H> or torus<W>x<H>",
    )
    parser.add_argument(
        "--routing", choices=("adaptive", "dimension_order"),
        default="adaptive",
        help="probe + best-effort routing (dimension_order needs a grid)",
    )


def _spec_from_args(
    args: argparse.Namespace,
    telemetry: bool = False,
    load: Optional[float] = None,
) -> ExperimentSpec:
    return ExperimentSpec(
        target_load=args.load if load is None else load,
        scheduler=args.scheduler,
        priority=args.priority,
        candidates=args.candidates,
        seed=args.seed,
        warmup_cycles=args.warmup,
        measure_cycles=args.cycles,
        telemetry=telemetry or getattr(args, "telemetry", False),
    )


def _result_payload(result) -> dict:
    return {
        "offered_load": result.offered_load,
        "connections": result.connections,
        "utilisation": result.utilisation,
        "mean_delay_cycles": result.mean_delay_cycles,
        "mean_delay_us": result.mean_delay_us,
        "mean_jitter_cycles": result.mean_jitter_cycles,
        "per_connection_delay_cycles": result.per_connection.mean_delay_cycles,
        "per_connection_jitter_cycles": result.per_connection.mean_jitter_cycles,
        "max_interface_backlog": result.max_interface_backlog,
    }


def _print_payload(payload: dict, indent: str = "") -> None:
    for key, value in payload.items():
        print(f"{indent}{key:>30}: {value:.4f}" if isinstance(value, float) else
              f"{indent}{key:>30}: {value}")


def cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment point (or several loads) and print the metrics."""
    loads = list(args.load)
    checkpointed = args.checkpoint_every is not None or args.resume_from is not None
    if checkpointed and len(loads) > 1:
        print("--checkpoint-every/--resume-from are single-point only; "
              "use one --load (or run_sweep's checkpointing)", file=sys.stderr)
        return 2
    if len(loads) > 1:
        # Several loads: one experiment per load, fanned out over --jobs
        # worker processes (telemetry/trace export is single-point only).
        sweep = run_sweep(
            _spec_from_args(args, load=loads[0]),
            [SweepAxis("target_load", tuple(loads))],
            jobs=args.jobs,
        )
        points = [
            {"target_load": load, **_result_payload(sweep.results[(load,)])}
            for load in loads
        ]
        if args.json:
            print(json.dumps({"points": points}, indent=2))
        else:
            for point in points:
                print(f"load {point['target_load']:g}:")
                _print_payload(
                    {k: v for k, v in point.items() if k != "target_load"}
                )
        return 0
    path = args.resume_from or args.checkpoint_out
    if checkpointed and path is None:
        print("--checkpoint-every needs --checkpoint-out PATH (or "
              "--resume-from an existing checkpoint)", file=sys.stderr)
        return 2
    try:
        # Without --checkpoint-every or --resume-from this is a plain run.
        result = run_single_router_experiment(
            _spec_from_args(args, load=loads[0]),
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=path,
            resume=args.resume_from is not None,
        )
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 1
    payload = _result_payload(result)
    if result.checkpoint is not None:
        payload["checkpoint"] = result.checkpoint
    recorder = result.recorder
    if recorder is not None:
        payload["telemetry_channels"] = recorder.telemetry.names()
        payload["trace_events"] = len(recorder.events)
        payload["config_digest"] = recorder.manifest.get("config_digest")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_payload(payload)
        if recorder is not None:
            print()
            print(format_telemetry(recorder.telemetry.snapshot()))
            print()
            print(format_kernel_profile(recorder.kernel_snapshot()))
    if recorder is not None and args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as stream:
            write_trace_json(recorder, stream)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Run one point with the flight recorder on; export its artefacts."""
    result = run_single_router_experiment(_spec_from_args(args, telemetry=True))
    recorder = result.recorder
    assert recorder is not None
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as stream:
            write_trace_json(recorder, stream)
    if args.export_out:
        with open(args.export_out, "w", encoding="utf-8") as stream:
            json.dump(recorder.export(), stream, indent=2, sort_keys=True)
            stream.write("\n")
    dropped = recorder.dropped_summary()
    if args.json:
        print(
            json.dumps(
                {
                    "manifest": recorder.manifest,
                    "telemetry": recorder.telemetry.snapshot(),
                    "kernel": recorder.kernel_snapshot(),
                    "trace_events": len(recorder.events),
                    "trace_dropped": recorder.dropped,
                    "dropped": dropped,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        manifest = recorder.manifest
        print(
            f"run manifest: seed={manifest.get('seed')} "
            f"config={manifest.get('config_digest')} "
            f"rev={manifest.get('git_revision')} "
            f"at={manifest.get('created_iso')}"
        )
        print(f"trace: {len(recorder.events)} events "
              f"({recorder.dropped} dropped)")
        if dropped["channels"]:
            per_channel = ", ".join(
                f"{name}={count}" for name, count in dropped["channels"].items()
            )
            print(f"telemetry rings dropped samples: {per_channel}")
        print()
        print(format_telemetry(recorder.telemetry.snapshot()))
        print()
        print(format_kernel_profile(recorder.kernel_snapshot()))
        if args.trace_out:
            print(f"\ntrace written to {args.trace_out}")
        if args.export_out:
            print(f"export written to {args.export_out}")
    return 0


def _parse_axis_value(text: str) -> Any:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _parse_axis(text: str) -> SweepAxis:
    """Parse ``name=v1,v2,...`` into a SweepAxis, inferring the target.

    Axis names are looked up among :class:`ExperimentSpec` fields first
    ('spec' target), then :class:`RouterConfig` fields ('config' target,
    applied via ``config.with_``).
    """
    name, sep, values_text = text.partition("=")
    values = tuple(
        _parse_axis_value(v) for v in values_text.split(",") if v != ""
    )
    if not sep or not values:
        raise argparse.ArgumentTypeError(
            f"axis must look like name=v1,v2,... (got {text!r})"
        )
    if name in _SPEC_FIELDS:
        target = "spec"
    elif name in _CONFIG_FIELDS:
        target = "config"
    else:
        raise argparse.ArgumentTypeError(
            f"unknown axis {name!r}: not an ExperimentSpec or RouterConfig field"
        )
    return SweepAxis(name, values, target)


def _parse_network_axis(text: str) -> SweepAxis:
    """Parse ``name=v1,v2,...`` against :class:`NetworkExperimentSpec`."""
    name, sep, values_text = text.partition("=")
    values = tuple(
        _parse_axis_value(v) for v in values_text.split(",") if v != ""
    )
    if not sep or not values:
        raise argparse.ArgumentTypeError(
            f"axis must look like name=v1,v2,... (got {text!r})"
        )
    if name not in _NETWORK_FIELDS:
        raise argparse.ArgumentTypeError(
            f"unknown axis {name!r}: not a NetworkExperimentSpec field"
        )
    return SweepAxis(name, values, "spec")


def _network_spec_from_args(
    args: argparse.Namespace, **overrides: Any
) -> NetworkExperimentSpec:
    kwargs = dict(
        target_link_load=args.link_load,
        num_nodes=args.nodes,
        best_effort_rate=args.best_effort,
        warmup_cycles=args.warmup,
        measure_cycles=args.cycles,
        seed=args.seed,
        topology=args.topology,
        routing=args.routing,
    )
    kwargs.update(overrides)
    return NetworkExperimentSpec(**kwargs)


def _network_sweep_base(
    args: argparse.Namespace, axes: Sequence[SweepAxis]
) -> NetworkExperimentSpec:
    """The base spec of a ``--network`` sweep.

    A swept field overrides every point, so the base takes the axis's
    first value — otherwise e.g. a topology sweep under dimension_order
    routing would fail base-spec validation against the irregular default.
    """
    overrides = {
        axis.name: axis.values[0]
        for axis in axes
        if axis.name in ("topology", "routing")
    }
    return _network_spec_from_args(args, **overrides)


def _checkpointing_from_args(args: argparse.Namespace) -> Optional[Checkpointing]:
    """Per-point checkpoints under ``--checkpoint-dir``; a rerun resumes."""
    if args.checkpoint_dir is None:
        return None
    return Checkpointing(directory=args.checkpoint_dir, every=args.checkpoint_every)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a design-space sweep and print its metric table.

    ``--network`` sweeps :class:`NetworkExperimentSpec` axes (topology,
    routing, target_link_load, ...) over the multi-router cluster
    instead of the single-router grid; points are checkpoint-resumable
    with ``--checkpoint-dir``.
    """
    parse_axis = _parse_network_axis if args.network else _parse_axis
    try:
        axes = [parse_axis(text) for text in args.axis]
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.network:
        sweep = run_sweep(
            _network_sweep_base(args, axes),
            axes,
            jobs=args.jobs,
            checkpointing=_checkpointing_from_args(args),
            _runner=run_network_experiment,
        )
        default_metrics = "mean_delay_cycles,mean_jitter_cycles,acceptance_ratio"
    else:
        sweep = run_sweep(_spec_from_args(args), axes, jobs=args.jobs)
        default_metrics = "mean_delay_us,mean_jitter_cycles,utilisation"
    metrics = (args.metrics or default_metrics).split(",")
    rows = sweep.rows(metrics)
    header = [axis.name for axis in axes] + metrics
    if args.json:
        print(json.dumps({"columns": header, "rows": rows}, indent=2))
        return 0
    cells = [
        [f"{v:.4f}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in cells))
        for i in range(len(header))
    ]
    print("  ".join(name.rjust(w) for name, w in zip(header, widths)))
    for row in cells:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return 0


def _fabric_from_args(args: argparse.Namespace):
    from .fabric import Fabric

    return Fabric(
        directory=args.directory,
        lease_ttl=args.ttl,
        heartbeat_every=args.heartbeat_every,
        checkpoint_every=getattr(args, "checkpoint_every", 10000),
        store_dir=getattr(args, "store_dir", None),
    )


def _fabric_grid_from_args(args: argparse.Namespace):
    """Build the (points, runner, axes) triple a fabric submission needs.

    Mirrors :func:`cmd_sweep`'s spec construction so ``repro fabric
    submit`` accepts the same ``--axis`` grammar (and ``--network``) as
    ``repro sweep``.
    """
    from .harness.sweep import sweep_points

    parse_axis = _parse_network_axis if args.network else _parse_axis
    axes = [parse_axis(text) for text in args.axis]
    if args.network:
        base = _network_sweep_base(args, axes)
        runner = run_network_experiment
    else:
        base = _spec_from_args(args)
        runner = run_single_router_experiment
    return sweep_points(base, axes), runner, axes


def cmd_fabric_submit(args: argparse.Namespace) -> int:
    """Explode a sweep onto a fabric directory's work queue."""
    from .fabric import submit_sweep

    fabric = _fabric_from_args(args)
    try:
        points, runner, axes = _fabric_grid_from_args(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = submit_sweep(fabric, points, runner, axes=tuple(axes))
    print(
        f"submitted grid {manifest['grid_digest']} "
        f"({manifest['points']} points, kind {manifest['kind']}) "
        f"to {fabric.directory}"
    )
    print("start workers with: repro fabric work", str(fabric.directory))
    return 0


def cmd_fabric_work(args: argparse.Namespace) -> int:
    """Drain a fabric queue as one worker (any host sharing the dir)."""
    from .fabric import FabricWorker

    fabric = _fabric_from_args(args)
    worker = FabricWorker(fabric)
    if args.until_complete:
        done = worker.drain_until_complete(timeout=args.timeout)
    else:
        done = worker.drain(max_points=args.max_points)
    stats = worker.store.stats()
    print(
        f"worker {worker.worker_id}: {done} points finished "
        f"({worker.points_computed} computed, {worker.points_cached} cached, "
        f"{worker.points_resumed} resumed from checkpoint); "
        f"store hits {stats['hits']}, misses {stats['misses']}"
    )
    return 0


def cmd_fabric_status(args: argparse.Namespace) -> int:
    """Queue depth, lease health and cache accounting for a fabric dir."""
    from .fabric import FabricQueue, ResultStore

    fabric = _fabric_from_args(args)
    queue = FabricQueue(fabric.directory, lease_ttl=fabric.lease_ttl)
    status = queue.status()
    store = ResultStore(fabric.store_root)
    status["store"] = {**store.stats(), "entries": store.entries()}
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"fabric {status['directory']} [grid {status['grid_digest']}]")
    print(
        f"  points: {status['completed']}/{status['points']} complete "
        f"({status['cached']} cached, {status['resumed']} resumed), "
        f"queue depth {status['queue_depth']}"
    )
    print(
        f"  leases: {len(status['leases_live'])} live, "
        f"{len(status['leases_expired'])} expired, "
        f"{status['lease_expiries_logged']} expiries logged"
    )
    print(f"  store: {status['store']['entries']} entries at {status['store']['root']}")
    return 0 if status["complete"] else 1


def cmd_fabric_gc(args: argparse.Namespace) -> int:
    """Clear expired leases, staging files, and stale store entries."""
    from .fabric import FabricQueue, ResultStore
    from .obs.manifest import git_revision

    fabric = _fabric_from_args(args)
    queue = FabricQueue(fabric.directory, lease_ttl=fabric.lease_ttl)
    report = queue.gc()
    store = ResultStore(fabric.store_root)
    keep = git_revision() or "unknown" if args.prune_old_revisions else None
    report["store"] = store.gc(keep_revision=keep)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_saturation(args: argparse.Namespace) -> int:
    """Bisect the saturation load of the selected variant."""
    base = _spec_from_args(args)
    estimate = find_saturation_load(base, tolerance=args.tolerance)
    print(f"variant: scheduler={base.scheduler} priority={base.priority} "
          f"candidates={base.candidates}")
    for load, saturated in estimate.samples:
        print(f"  load {load:.3f}: {'SATURATED' if saturated else 'stable'}")
    print(f"saturation load ~= {estimate.estimate:.3f} "
          f"(stable up to {estimate.stable_load:.3f})")
    return 0


def cmd_network(args: argparse.Namespace) -> int:
    """Run the network-level (multi-router) experiment."""
    spec = _network_spec_from_args(args)
    result = run_network_experiment(spec)
    payload = {
        "streams": result.streams,
        "acceptance_ratio": result.acceptance_ratio,
        "mean_hops": result.mean_hops,
        "mean_delay_cycles": result.delay_cycles.mean,
        "delay_per_hop_cycles": result.delay_per_hop,
        "mean_jitter_cycles": result.jitter_cycles.mean,
        "best_effort_delivered": result.best_effort_delivered,
        "links_searched": result.links_searched,
        "backtracks": result.backtracks,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key:>25}: {value:.4f}" if isinstance(value, float) else
                  f"{key:>25}: {value}")
    return 0


def _parse_churn_axis(text: str) -> SweepAxis:
    """Parse ``name=v1,v2,...`` against :class:`ChurnSpec` fields."""
    name, sep, values_text = text.partition("=")
    values = tuple(
        _parse_axis_value(v) for v in values_text.split(",") if v != ""
    )
    if not sep or not values:
        raise argparse.ArgumentTypeError(
            f"axis must look like name=v1,v2,... (got {text!r})"
        )
    if name not in _CHURN_FIELDS:
        raise argparse.ArgumentTypeError(
            f"unknown axis {name!r}: not a ChurnSpec field"
        )
    return SweepAxis(name, values, "spec")


def _parse_slo(text: str) -> str:
    """Validate a ``metric=limit`` budget; keep it as text for ChurnSpec."""
    try:
        SloBudget.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _churn_payload(result) -> dict:
    return {
        "arrivals": result.arrivals,
        "established": result.established,
        "blocked": result.blocked,
        "torn_down": result.torn_down,
        "blocking_probability": result.blocking_probability,
        "setup_p50_cycles": result.setup_p50,
        "setup_p99_cycles": result.setup_p99,
        "setup_mean_cycles": result.setup_mean,
        "mean_delay_cycles": result.mean_delay_cycles,
        "mean_jitter_cycles": result.mean_jitter_cycles,
        "flits_delivered": result.flits_delivered,
        "renegotiations_applied": result.renegotiations_applied,
        "renegotiations_refused": result.renegotiations_refused,
        "teardown_retries": result.teardown_retries,
        "links_searched": result.links_searched,
        "backtracks": result.backtracks,
        "unclassified_connections": result.unclassified_connections,
        "drained": result.drained,
        "leak_free": result.leak_free,
        "slo_ok": result.slo_ok,
        "slo_state": result.slo_state,
        "slo_violations": result.slo_violations,
        "violating_sessions": result.violating_sessions,
    }


def cmd_churn(args: argparse.Namespace) -> int:
    """Run the session-churn workload (single point or --axis sweep).

    Exit status: 0 healthy; 1 when the post-drain resource-leak
    invariant fails (at any sweep point); 2 when every invariant holds
    but a declared ``--slo`` budget tripped.  Both are CI gates.
    """
    telemetry = args.telemetry or bool(
        args.trace_out or args.export_out or args.report_out
    )
    spec = ChurnSpec(
        num_sessions=args.sessions,
        mean_interarrival_cycles=args.interarrival,
        mean_holding_cycles=args.holding,
        vbr_fraction=args.vbr_fraction,
        renegotiation_fraction=args.renegotiation_fraction,
        diurnal_amplitude=args.diurnal_amplitude,
        num_nodes=args.nodes,
        seed=args.seed,
        telemetry=telemetry,
        police=not args.no_police,
        slos=tuple(args.slo),
        exact_setup_stats=args.exact_setup_stats,
    )
    checkpointing = _checkpointing_from_args(args)
    if args.axis:
        sweep = run_sweep(
            spec,
            args.axis,
            jobs=args.jobs,
            checkpointing=checkpointing,
            _runner=run_churn_experiment,
        )
        header = [axis.name for axis in args.axis] + [
            "blocking_probability", "setup_p50_cycles", "setup_p99_cycles",
            "mean_delay_cycles", "leak_free",
        ]
        rows = sweep.rows(
            ["blocking_probability", "setup_p50", "setup_p99",
             "mean_delay_cycles", "leak_free"]
        )
        leaky = [
            key for key, result in sweep.results.items() if not result.leak_free
        ]
        breached = [
            key for key, result in sweep.results.items() if not result.slo_ok
        ]

        def _point_label(key) -> str:
            return ",".join(
                f"{axis.name}={value}" for axis, value in zip(args.axis, key)
            )

        points = [
            (_point_label(key), result.health)
            for key, result in sorted(sweep.results.items())
            if result.health is not None
        ]
        rollup = merge_health(points) if points else None
        if rollup is not None and args.health_out:
            with open(args.health_out, "w", encoding="utf-8") as stream:
                json.dump(rollup, stream, indent=2, sort_keys=True)
                stream.write("\n")
        if rollup is not None and args.report_out:
            with open(args.report_out, "w", encoding="utf-8") as stream:
                stream.write(render_rollup(rollup, title="churn sweep health"))
        if args.json:
            print(json.dumps(
                {"columns": header, "rows": rows,
                 "leaky_points": [list(k) for k in leaky],
                 "slo_breached_points": [list(k) for k in breached]},
                indent=2,
            ))
        else:
            cells = [
                [f"{v:.4f}" if isinstance(v, float) else str(v) for v in row]
                for row in rows
            ]
            widths = [
                max(len(header[i]), *(len(row[i]) for row in cells))
                for i in range(len(header))
            ]
            print("  ".join(name.rjust(w) for name, w in zip(header, widths)))
            for row in cells:
                print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if leaky:
            print(f"resource-leak invariant FAILED at {len(leaky)} point(s)",
                  file=sys.stderr)
            return 1
        if breached:
            print(f"SLO budgets tripped at {len(breached)} point(s):",
                  file=sys.stderr)
            for key in breached:
                point = sweep.results[key]
                sessions = ", ".join(str(s) for s in point.violating_sessions)
                print(f"  {_point_label(key)}: "
                      f"{len(point.slo_violations)} violation(s)"
                      + (f", sessions {sessions}" if sessions else ""),
                      file=sys.stderr)
            return 2
        return 0
    checkpoint = {}
    if checkpointing is not None:
        checkpoint = dict(
            checkpoint_every=checkpointing.every,
            checkpoint_path=str(checkpointing.point_path(("churn",))),
            resume=True,
        )
    result = run_churn_experiment(
        spec, health_path=args.health_out, health_every=args.health_every, **checkpoint
    )
    payload = _churn_payload(result)
    if result.checkpoint is not None:
        payload["checkpoint"] = result.checkpoint
    recorder = result.recorder
    export = None
    if recorder is not None:
        payload["telemetry_channels"] = recorder.telemetry.names()
        payload["spans"] = len(recorder.spans)
        payload["dropped"] = recorder.dropped_summary()
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as stream:
                write_trace_json(recorder, stream)
        if args.export_out or args.report_out:
            export = recorder.export()
        if args.export_out:
            with open(args.export_out, "w", encoding="utf-8") as stream:
                json.dump(export, stream, indent=2, sort_keys=True)
                stream.write("\n")
    if args.report_out and result.health is not None:
        # Full heartbeat trail when one was written; else just the final
        # snapshot (sparklines then come from the export, if any).
        trail = (
            read_health(args.health_out) if args.health_out
            else [result.health]
        )
        with open(args.report_out, "w", encoding="utf-8") as stream:
            stream.write(
                render_report(trail, export=export, title="churn run health")
            )
    if args.bench_out:
        with open(args.bench_out, "w", encoding="utf-8") as stream:
            json.dump({"churn": payload}, stream, indent=2, sort_keys=True)
            stream.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        printable = dict(payload)
        slo_state = printable.pop("slo_state")
        printable.pop("slo_violations")
        printable.pop("violating_sessions")
        printable.pop("dropped", None)
        _print_payload(printable)
        for budget in slo_state:
            status = "BREACHED" if budget["breached"] else "ok"
            print(f"{'slo ' + budget['metric']:>30}: {status} "
                  f"(observed {budget['observed']:.4g}, "
                  f"limit {budget['limit']:g}, "
                  f"samples {budget['samples']})")
        if recorder is not None:
            dropped = recorder.dropped_summary()
            if dropped["total"]:
                print(f"WARNING: {dropped['total']} observability samples "
                      f"dropped (trace {dropped['trace']}, "
                      f"spans {dropped['spans']}, telemetry rings "
                      f"{sum(dropped['channels'].values())})",
                      file=sys.stderr)
        if not result.leak_free:
            print("resource-leak invariant FAILED:", file=sys.stderr)
            for line in result.leak_report:
                print(f"  {line}", file=sys.stderr)
    if not result.leak_free:
        return 1
    if not result.slo_ok:
        print("SLO budgets tripped:", file=sys.stderr)
        for violation in result.slo_violations[:20]:
            where = ""
            if violation["session_id"] != -1:
                where = f" (session {violation['session_id']}"
                if violation["span_id"] != -1:
                    where += f", span {violation['span_id']}"
                where += ")"
            print(f"  {violation['metric']}={violation['observed']:.4g} > "
                  f"limit {violation['limit']:g} "
                  f"at cycle {violation['time']}{where}", file=sys.stderr)
        if len(result.slo_violations) > 20:
            print(f"  ... and {len(result.slo_violations) - 20} more",
                  file=sys.stderr)
        sessions = ", ".join(str(s) for s in result.violating_sessions)
        if sessions:
            print(f"  violating sessions: {sessions}", file=sys.stderr)
        return 2
    return 0


def cmd_ckpt_inspect(args: argparse.Namespace) -> int:
    """Describe a checkpoint from its header alone (no unpickling, so
    inspecting a corrupt or foreign file is safe)."""
    try:
        summary = CheckpointCodec.inspect(args.file)
    except (CheckpointError, OSError) as exc:
        print(f"cannot inspect {args.file}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    manifest = summary["manifest"]
    print(f"checkpoint: {summary['path']}")
    print(f"{'schema':>16}: {summary['schema']}")
    print(f"{'kind':>16}: {summary['kind']}")
    print(f"{'cycle':>16}: {summary['cycle']}")
    print(f"{'seed':>16}: {summary['seed']}")
    print(f"{'config digest':>16}: {summary['config_digest']}")
    print(f"{'git revision':>16}: {manifest.get('git_revision')}")
    print(f"{'written':>16}: {manifest.get('created_iso')}")
    print(f"{'file bytes':>16}: {summary['file_bytes']}")
    print(f"{'payload bytes':>16}: {summary['payload_bytes']}")
    print(f"{'payload sha256':>16}: {summary['payload_sha256'][:16]}...")
    if summary["sections"]:
        print("component sizes (bytes added to the payload; shared state "
              "counts toward the first component dumped):")
        for name, size in summary["sections"].items():
            print(f"{name:>16}: {size}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a run-health HTML dashboard from exported artefacts.

    One ``--health`` trail renders a single-run dashboard (pair it with
    ``--export`` for full-resolution sparklines); several trails, or a
    pre-built ``--rollup``, render the sweep-level rollup page.
    """
    if args.rollup:
        rollup = json.loads(Path(args.rollup).read_text(encoding="utf-8"))
        html = render_rollup(rollup, title=args.title)
    elif len(args.health) > 1:
        points = []
        for path in args.health:
            snapshots = read_health(path)
            if snapshots:
                points.append((Path(path).stem, snapshots[-1]))
        if not points:
            print("no snapshots in any --health file", file=sys.stderr)
            return 1
        html = render_rollup(merge_health(points), title=args.title)
    elif args.health:
        snapshots = read_health(args.health[0])
        if not snapshots:
            print(f"no snapshots in {args.health[0]}", file=sys.stderr)
            return 1
        export = None
        if args.export:
            export = json.loads(
                Path(args.export).read_text(encoding="utf-8")
            )
        html = render_report(snapshots, export=export, title=args.title)
    else:
        print("report needs --health FILE (repeatable) or --rollup FILE",
              file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(html)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(html)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """Print the paper configuration's derived quantities."""
    config: RouterConfig = PAPER_CONFIG
    rows = [
        ("ports", config.num_ports),
        ("virtual channels / port", config.vcs_per_port),
        ("link rate (Gbps)", config.link_rate_bps / 1e9),
        ("flit size (bits)", config.flit_size_bits),
        ("flit cycle (ns)", round(config.flit_cycle_ns, 1)),
        ("phits / flit", config.phits_per_flit),
        ("round length (flit cycles)", config.round_length),
        ("aggregate bandwidth (Gbps)", config.aggregate_bandwidth_bps / 1e9),
    ]
    for name, value in rows:
        print(f"{name:>28}: {value}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro", description="MMR (HPCA 1999) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment point")
    _add_spec_arguments(run_parser, multi_load=True)
    run_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes when several --load values are given",
    )
    run_parser.add_argument("--json", action="store_true", help="JSON output")
    run_parser.add_argument(
        "--telemetry", action="store_true",
        help="attach the flight recorder (telemetry + kernel profile)",
    )
    run_parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="with --telemetry: write the Perfetto trace JSON here",
    )
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="CYCLES",
        help="write a checkpoint to --checkpoint-out every CYCLES cycles",
    )
    run_parser.add_argument(
        "--checkpoint-out", default=None, metavar="PATH",
        help="checkpoint file path (atomically replaced; latest wins)",
    )
    run_parser.add_argument(
        "--resume-from", default=None, metavar="PATH",
        help="resume from an existing checkpoint instead of cycle 0 "
             "(bit-identical to a straight run)",
    )
    run_parser.set_defaults(func=cmd_run)

    obs_parser = sub.add_parser(
        "obs", help="flight-recorder run: telemetry, profile, trace export"
    )
    _add_spec_arguments(obs_parser)
    obs_parser.add_argument("--json", action="store_true", help="JSON output")
    obs_parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the Chrome/Perfetto trace-event JSON here",
    )
    obs_parser.add_argument(
        "--export-out", default=None, metavar="PATH",
        help="write the full recorder export (manifest+telemetry+trace) here",
    )
    obs_parser.set_defaults(func=cmd_obs)

    sweep_parser = sub.add_parser(
        "sweep", help="cartesian design-space sweep over spec/config axes"
    )
    _add_spec_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--axis", action="append", required=True,
        metavar="NAME=V1,V2,...",
        help="swept parameter (repeatable); ExperimentSpec or RouterConfig "
             "field name followed by comma-separated values "
             "(NetworkExperimentSpec fields with --network)",
    )
    sweep_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for sweep points"
    )
    sweep_parser.add_argument(
        "--metrics", default=None,
        help="comma-separated result attributes to tabulate (default: "
             "mean_delay_us,mean_jitter_cycles,utilisation; with --network: "
             "mean_delay_cycles,mean_jitter_cycles,acceptance_ratio)",
    )
    sweep_parser.add_argument(
        "--network", action="store_true",
        help="sweep the multi-router cluster (NetworkExperimentSpec axes: "
             "topology=mesh8x8,torus16x16,..., routing, target_link_load, ...)",
    )
    _add_network_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="with --network: periodic per-point checkpoints under DIR; "
             "rerunning the sweep resumes from them",
    )
    sweep_parser.add_argument(
        "--checkpoint-every", type=int, default=10000, metavar="CYCLES",
    )
    sweep_parser.add_argument("--json", action="store_true", help="JSON output")
    sweep_parser.set_defaults(func=cmd_sweep)

    figures_parser = sub.add_parser("figures", help="regenerate figure tables")
    figures_parser.add_argument("which", nargs="?", default="all",
                                choices=("fig3", "fig4", "fig5", "all"))
    figures_parser.add_argument("--full", action="store_true")
    figures_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the figure grid points",
    )
    figures_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent content-addressed figure cache: reruns with the "
             "same specs on the same commit recompute nothing",
    )
    figures_parser.set_defaults(
        func=lambda args: figures_main(
            [args.which]
            + (["--full"] if args.full else [])
            + ([f"--jobs={args.jobs}"] if args.jobs != 1 else [])
            + ([f"--cache-dir={args.cache_dir}"] if args.cache_dir else [])
        )
    )

    fabric_parser = sub.add_parser(
        "fabric",
        help="distributed sweep fabric: shared-directory work queue with "
             "leases, crash requeue and a content-addressed result cache",
    )
    fabric_sub = fabric_parser.add_subparsers(dest="fabric_command", required=True)

    def _add_fabric_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "directory",
            help="fabric coordination directory (shared filesystem for "
                 "multi-host operation)",
        )
        parser.add_argument(
            "--ttl", type=float, default=60.0, metavar="SECONDS",
            help="lease time-to-live: a worker silent this long is presumed "
                 "dead and its point is requeued (default 60)",
        )
        parser.add_argument(
            "--heartbeat-every", type=float, default=5.0, metavar="SECONDS",
            help="worker heartbeat period (default 5)",
        )
        parser.add_argument(
            "--store-dir", default=None, metavar="DIR",
            help="result store root (default: DIRECTORY/store); point "
                 "several fabrics at one store to share their cache",
        )

    submit_parser = fabric_sub.add_parser(
        "submit", help="explode a sweep grid onto the fabric work queue"
    )
    _add_fabric_arguments(submit_parser)
    _add_spec_arguments(submit_parser)
    submit_parser.add_argument(
        "--axis", action="append", required=True, metavar="NAME=V1,V2,...",
        help="swept parameter (repeatable), same grammar as `repro sweep`",
    )
    submit_parser.add_argument(
        "--network", action="store_true",
        help="sweep NetworkExperimentSpec axes over the multi-router cluster",
    )
    _add_network_arguments(submit_parser)
    submit_parser.add_argument(
        "--checkpoint-every", type=int, default=10000, metavar="CYCLES",
        help="per-point checkpoint period workers use (default 10000)",
    )
    submit_parser.set_defaults(func=cmd_fabric_submit)

    work_parser = fabric_sub.add_parser(
        "work", help="drain the queue as one worker (run on any sharing host)"
    )
    _add_fabric_arguments(work_parser)
    work_parser.add_argument(
        "--until-complete", action="store_true",
        help="keep polling until every point has a result (waits out other "
             "workers' live leases; requeues expired ones)",
    )
    work_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="with --until-complete: give up after this long",
    )
    work_parser.add_argument(
        "--max-points", type=int, default=None, metavar="N",
        help="stop after finishing N points",
    )
    work_parser.set_defaults(func=cmd_fabric_work)

    status_parser = fabric_sub.add_parser(
        "status", help="queue depth, lease health, cache accounting "
                       "(exit 0 when complete, 1 otherwise)"
    )
    _add_fabric_arguments(status_parser)
    status_parser.add_argument("--json", action="store_true")
    status_parser.set_defaults(func=cmd_fabric_status)

    gc_parser = fabric_sub.add_parser(
        "gc", help="clear expired leases, staging files and stale cache entries"
    )
    _add_fabric_arguments(gc_parser)
    gc_parser.add_argument(
        "--prune-old-revisions", action="store_true",
        help="also delete store entries from other code revisions (they "
             "can never hit again)",
    )
    gc_parser.set_defaults(func=cmd_fabric_gc)

    saturation_parser = sub.add_parser(
        "saturation", help="bisect a variant's saturation load"
    )
    _add_spec_arguments(saturation_parser)
    saturation_parser.add_argument("--tolerance", type=float, default=0.02)
    saturation_parser.set_defaults(func=cmd_saturation)

    network_parser = sub.add_parser(
        "network", help="multi-router cluster experiment"
    )
    _add_network_arguments(network_parser)
    network_parser.add_argument("--warmup", type=int, default=5000)
    network_parser.add_argument("--cycles", type=int, default=20000)
    network_parser.add_argument("--seed", type=int, default=1)
    network_parser.add_argument("--json", action="store_true")
    network_parser.set_defaults(func=cmd_network)

    churn_parser = sub.add_parser(
        "churn", help="open-loop session-churn workload over the probe protocol"
    )
    churn_parser.add_argument("--sessions", type=int, default=10000,
                              help="total session arrivals")
    churn_parser.add_argument("--interarrival", type=float, default=400.0,
                              help="mean Poisson inter-arrival gap (cycles)")
    churn_parser.add_argument("--holding", type=float, default=20000.0,
                              help="mean session lifetime (cycles)")
    churn_parser.add_argument("--vbr-fraction", type=float, default=0.3)
    churn_parser.add_argument("--renegotiation-fraction", type=float, default=0.25,
                              help="fraction of VBR sessions renegotiating mid-life")
    churn_parser.add_argument("--diurnal-amplitude", type=float, default=0.0,
                              help="sinusoidal arrival-rate modulation depth [0,1)")
    churn_parser.add_argument("--nodes", type=int, default=12)
    churn_parser.add_argument("--seed", type=int, default=1)
    churn_parser.add_argument("--no-police", action="store_true",
                              help="disable per-session token-bucket policing")
    churn_parser.add_argument("--telemetry", action="store_true",
                              help="attach the flight recorder (churn.* channels)")
    churn_parser.add_argument(
        "--axis", action="append", default=[], type=_parse_churn_axis,
        metavar="NAME=V1,V2,...",
        help="sweep a ChurnSpec field (repeatable); enables sweep mode",
    )
    churn_parser.add_argument("--jobs", type=int, default=1,
                              help="worker processes for sweep points")
    churn_parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="periodic checkpoints under DIR; rerunning resumes from them",
    )
    churn_parser.add_argument("--checkpoint-every", type=int, default=100000,
                              metavar="CYCLES")
    churn_parser.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="write the churn metrics as a BENCH JSON artifact",
    )
    churn_parser.add_argument(
        "--slo", action="append", default=[], type=_parse_slo,
        metavar="METRIC=LIMIT",
        help="declare an SLO budget (repeatable): setup_p99=N, "
             "blocking_probability=F, jitter_mean=F, "
             "policer_refusal_rate=F; any trip exits 2",
    )
    churn_parser.add_argument(
        "--exact-setup-stats", action="store_true",
        help="keep the full setup-latency list (exact quantiles) instead "
             "of the default constant-space streaming estimators",
    )
    churn_parser.add_argument(
        "--health-out", default=None, metavar="PATH",
        help="append periodic health snapshots as JSON Lines (single "
             "point) or write the sweep health rollup JSON (--axis mode)",
    )
    churn_parser.add_argument(
        "--health-every", type=int, default=5000, metavar="CYCLES",
        help="health-snapshot heartbeat period (with --health-out)",
    )
    churn_parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the Perfetto trace (flit events + control-plane "
             "spans); implies --telemetry",
    )
    churn_parser.add_argument(
        "--export-out", default=None, metavar="PATH",
        help="write the full recorder export JSON; implies --telemetry",
    )
    churn_parser.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write the run-health HTML dashboard (rollup page in "
             "--axis mode); implies --telemetry",
    )
    churn_parser.add_argument("--json", action="store_true", help="JSON output")
    churn_parser.set_defaults(func=cmd_churn)

    ckpt_parser = sub.add_parser("ckpt", help="checkpoint tooling")
    ckpt_sub = ckpt_parser.add_subparsers(dest="ckpt_command", required=True)
    inspect_parser = ckpt_sub.add_parser(
        "inspect",
        help="dump a checkpoint's header and component sizes",
        description=f"Print a {CKPT_SCHEMA} checkpoint's header without unpickling "
        "it.  Component sizes are the bytes each component added to the "
        "payload, in dump order, and sum to the payload size.  Size follows "
        "the VCs in use: an idle VC costs ~15 bytes, so an 8x256-VC router "
        "with 58 connections is ~110 KB (~390 KB under ckpt/3).",
    )
    inspect_parser.add_argument("file", help="checkpoint file path")
    inspect_parser.add_argument("--json", action="store_true", help="JSON output")
    inspect_parser.set_defaults(func=cmd_ckpt_inspect)

    report_parser = sub.add_parser(
        "report", help="render a run-health HTML dashboard from artefacts"
    )
    report_parser.add_argument(
        "--health", action="append", default=[], metavar="FILE",
        help="health JSONL trail (repeatable; several files roll up)",
    )
    report_parser.add_argument(
        "--export", default=None, metavar="FILE",
        help="recorder export JSON for full-resolution sparklines",
    )
    report_parser.add_argument(
        "--rollup", default=None, metavar="FILE",
        help="pre-built health-rollup JSON (from churn --axis --health-out)",
    )
    report_parser.add_argument(
        "-o", "--out", default=None, metavar="PATH",
        help="output HTML path (default: stdout)",
    )
    report_parser.add_argument("--title", default="run health")
    report_parser.set_defaults(func=cmd_report)

    info_parser = sub.add_parser("info", help="paper configuration summary")
    info_parser.set_defaults(func=cmd_info)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
