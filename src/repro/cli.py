"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — one point of the single-router evaluation grid (or several
  loads fanned out over ``--jobs`` worker processes).
* ``sweep`` — a cartesian design-space sweep (``--axis name=v1,v2,...``)
  over spec or router-config parameters (``--network``: over the
  multi-router cluster's), optionally parallel and checkpoint-resumable.
* ``figures`` — regenerate Figure 3/4/5 tables; ``--out DIR`` also writes
  each figure as JSON and CSV plus a ``summary.txt`` of the tables.
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

Every experiment command reads the one experiment-kind registry
(:func:`~repro.harness.resumable.experiment_kinds`).  A spec flag's
``dest`` is the spec field it sets, so one builder (:func:`_spec`) makes
any kind's spec, one grammar (:func:`_parse_axis`) reads any kind's
``--axis``, and ``sweep``, ``sweep --network``, ``fabric submit`` and
``churn --axis`` share one grid path (:func:`_grid`, :func:`cmd_sweep`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

from .ckpt.codec import CKPT_SCHEMA, CheckpointCodec, CheckpointError
from .core.config import RouterConfig
from .harness.export import write_figure_csv, write_figure_json, write_trace_json
from .harness.figures import DEFAULT_LOADS, enable_figure_cache
from .harness.figures import figure3, figure4, figure5
from .harness.report import format_kernel_profile, format_table, format_telemetry
from .harness.resumable import experiment_kinds
from .harness.saturation import find_saturation_load
from .harness.single_router import PAPER_CONFIG, SCHEDULERS
from .harness.sweep import Checkpointing, SweepAxis, run_sweep, sweep_points
from .obs.health import merge_health, read_health
from .obs.report import render_report, render_rollup

#: The experiment kinds by tag, and each kind's spec fields.
_KINDS = experiment_kinds()
_FIELDS = {
    kind: {f.name for f in dataclasses.fields(kind.SPEC)} for kind in _KINDS.values()
}
_ALL_FIELDS = set().union(*_FIELDS.values())
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RouterConfig)}

#: Defaults of the spec flags whose spec field has none.  The other spec
#: flags default to None: left out, they take their spec class's default.
_FLAG_DEFAULTS = {"target_load": 0.8, "target_link_load": 0.4}


def _add_spec_arguments(
    parser: argparse.ArgumentParser, multi_load: bool = False
) -> None:
    if multi_load:
        parser.add_argument(
            "--load", dest="target_load", type=float, nargs="+", default=[0.8],
            metavar="LOAD", help="offered load(s); several values fan out over --jobs",
        )
    else:
        parser.add_argument("--load", dest="target_load", type=float, help="offered load")
    parser.add_argument(
        "--scheduler", choices=SCHEDULERS,
        help="switch scheduler variant",
    )
    parser.add_argument(
        "--priority",
        help="priority scheme: biased, fixed, age, rate, static, frozen",
    )
    parser.add_argument("--candidates", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--warmup", dest="warmup_cycles", type=int, help="warm-up cycles")
    parser.add_argument("--cycles", dest="measure_cycles", type=int, help="measured cycles")


def _add_network_arguments(parser: argparse.ArgumentParser) -> None:
    """Cluster-shape options shared by ``network`` and ``sweep --network``."""
    parser.add_argument(
        "--link-load", dest="target_link_load", type=float,
        help="target mean router-to-router link utilisation",
    )
    parser.add_argument(
        "--nodes", dest="num_nodes", type=int,
        help="node count (irregular topology only)",
    )
    parser.add_argument(
        "--best-effort", dest="best_effort_rate", type=float,
        help="best-effort packets per node per 100 cycles",
    )
    parser.add_argument(
        "--topology", metavar="NAME",
        help="irregular (default), mesh<W>x<H> or torus<W>x<H>",
    )
    parser.add_argument(
        "--routing", choices=("adaptive", "dimension_order"),
        help="probe + best-effort routing (dimension_order needs a grid)",
    )


def _spec(args: argparse.Namespace, **overrides: Any):
    """Build ``args.kind``'s spec from the flags whose dest is its field.

    A given flag that sets another kind's field (``--load`` under
    ``--network``) is an error, not silently dropped, and so is a value
    the spec refuses.
    """
    fields = _FIELDS[args.kind]
    given = {
        name: value for name, value in vars(args).items()
        if name in _ALL_FIELDS and value is not None
    }
    stray = given.keys() - fields
    if stray:
        flags = [a.option_strings[0] for a in args.parser._actions if a.dest in stray]
        raise argparse.ArgumentTypeError(
            f"{', '.join(flags)}: not a {args.kind.KIND} experiment option"
        )
    values = {**_FLAG_DEFAULTS, **given, **overrides}
    try:
        return args.kind.SPEC(**{
            name: tuple(value) if isinstance(value, list) else value
            for name, value in values.items()
            if name in fields
        })
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _write(path, writer, data) -> None:
    """``writer(data, stream)`` into a fresh UTF-8 text file at ``path``."""
    with open(path, "w", encoding="utf-8") as stream:
        writer(data, stream)


def _dump_json(data, stream) -> None:
    json.dump(data, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _print_payload(payload: dict) -> None:
    for key, value in payload.items():
        print(f"{key:>30}: {value:.4f}" if isinstance(value, float) else
              f"{key:>30}: {value}")


def cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment point (or several loads) and print the metrics."""
    loads = list(args.target_load)
    checkpointed = args.checkpoint_every is not None or args.resume_from is not None
    if checkpointed and len(loads) > 1:
        print("--checkpoint-every/--resume-from are single-point only; "
              "use one --load (or run_sweep's checkpointing)", file=sys.stderr)
        return 2
    if len(loads) > 1:
        # Several loads: one experiment per load, fanned out over --jobs
        # worker processes (telemetry/trace export is single-point only).
        sweep = run_sweep(
            _spec(args, target_load=loads[0]),
            [SweepAxis("target_load", tuple(loads))],
            jobs=args.jobs,
        )
        points = [
            {"target_load": load, **args.kind.summary(sweep.results[(load,)])}
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
        result = args.kind.runner()(
            _spec(args, target_load=loads[0]),
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=path,
            resume=args.resume_from is not None,
        )
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 1
    payload = args.kind.summary(result)
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
        _write(args.trace_out, write_trace_json, recorder)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Run one point with the flight recorder on; export its artefacts."""
    result = args.kind.runner()(_spec(args, telemetry=True))
    recorder = result.recorder
    assert recorder is not None
    if args.trace_out:
        _write(args.trace_out, write_trace_json, recorder)
    if args.export_out:
        _write(args.export_out, _dump_json, recorder.export())
    if args.json:
        print(json.dumps(recorder.summary(), indent=2, sort_keys=True))
    else:
        dropped = recorder.dropped_summary()
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


def _parse_axis(kind, text: str) -> SweepAxis:
    """Parse ``name=v1,v2,...`` into a SweepAxis of experiment ``kind``.

    Axis names are looked up among the kind's spec fields first ('spec'
    target), then, for a spec with a ``config`` (the single router's),
    among :class:`RouterConfig` fields ('config' target, applied via
    ``config.with_``).
    """
    name, sep, values_text = text.partition("=")
    values = tuple(
        _parse_axis_value(v) for v in values_text.split(",") if v != ""
    )
    if not sep or not values:
        raise argparse.ArgumentTypeError(
            f"axis must look like name=v1,v2,... (got {text!r})"
        )
    fields = _FIELDS[kind]
    if name in fields:
        return SweepAxis(name, values, "spec")
    if "config" in fields and name in _CONFIG_FIELDS:
        return SweepAxis(name, values, "config")
    where = kind.SPEC.__name__ + (" or RouterConfig" if "config" in fields else "")
    raise argparse.ArgumentTypeError(f"unknown axis {name!r}: not a field of {where}")


def _grid(args: argparse.Namespace):
    """The base spec and axes of a sweep of ``args.kind``.

    A swept field overrides every point, so the base takes the axis's
    first value — otherwise e.g. a topology sweep under dimension_order
    routing would fail base-spec validation against the irregular default.
    """
    axes = [_parse_axis(args.kind, text) for text in args.axis]
    firsts = {axis.name: axis.values[0] for axis in axes if axis.target == "spec"}
    return _spec(args, **firsts), axes


def _checkpointing_from_args(args: argparse.Namespace) -> Optional[Checkpointing]:
    """Per-point checkpoints under ``--checkpoint-dir``; a rerun resumes."""
    if args.checkpoint_dir is None:
        return None
    return Checkpointing(directory=args.checkpoint_dir, every=args.checkpoint_every)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a design-space sweep and print its metric table.

    ``--network`` sweeps :class:`NetworkExperimentSpec` axes (topology,
    routing, target_link_load, ...) over the multi-router cluster
    instead of the single-router grid, and ``repro churn --axis`` sweeps
    :class:`ChurnSpec` axes; points are checkpoint-resumable with
    ``--checkpoint-dir``.
    """
    kind = args.kind
    base, axes = _grid(args)
    sweep = run_sweep(
        base,
        axes,
        jobs=args.jobs,
        checkpointing=_checkpointing_from_args(args),
        _runner=kind.runner(),
    )
    metrics = getattr(args, "metrics", None)
    columns = metrics.split(",") if metrics else list(kind.SWEEP_COLUMNS)
    header = [axis.name for axis in axes] + columns
    rows = sweep.rows([kind.SUMMARY_FIELDS.get(name, name) for name in columns])
    table = {"columns": header, "rows": rows}
    status, complaints = 0, []
    if kind is _KINDS["churn"]:
        status, complaints = _churn_verdict(args, sweep, axes, table)
    if args.json:
        print(json.dumps(table, indent=2))
    else:
        print(format_table(header, rows, precision=4))
    for line in complaints:
        print(line, file=sys.stderr)
    return status


def _fabric_from_args(args: argparse.Namespace):
    from .fabric import Fabric

    return Fabric(
        directory=args.directory,
        lease_ttl=args.ttl,
        heartbeat_every=args.heartbeat_every,
        checkpoint_every=getattr(args, "checkpoint_every", 10000),
        store_dir=getattr(args, "store_dir", None),
    )


def cmd_fabric_submit(args: argparse.Namespace) -> int:
    """Explode a sweep onto a fabric directory's work queue."""
    from .fabric import submit_sweep

    fabric = _fabric_from_args(args)
    base, axes = _grid(args)
    manifest = submit_sweep(
        fabric, sweep_points(base, axes), args.kind.runner(), axes=tuple(axes)
    )
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
    base = _spec(args)
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
    result = args.kind.runner()(_spec(args))
    payload = args.kind.summary(result)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_payload(payload)
    return 0


def _churn_verdict(args, sweep, axes, table) -> Tuple[int, List[str]]:
    """A churn sweep's verdict: (exit status, stderr lines).

    Writes the health rollup (``--health-out``, ``--report-out``) and
    adds the leaky and SLO-breached points to ``table``.
    """
    leaky = [
        key for key, result in sweep.results.items() if not result.leak_free
    ]
    breached = [
        key for key, result in sweep.results.items() if not result.slo_ok
    ]

    def _point_label(key) -> str:
        return ",".join(
            f"{axis.name}={value}" for axis, value in zip(axes, key)
        )

    points = [
        (_point_label(key), result.health)
        for key, result in sorted(sweep.results.items())
        if result.health is not None
    ]
    rollup = merge_health(points) if points else None
    if rollup is not None and args.health_out:
        _write(args.health_out, _dump_json, rollup)
    if rollup is not None and args.report_out:
        html = render_rollup(rollup, title="churn sweep health")
        Path(args.report_out).write_text(html, encoding="utf-8")
    table["leaky_points"] = [list(k) for k in leaky]
    table["slo_breached_points"] = [list(k) for k in breached]
    if leaky:
        return 1, [f"resource-leak invariant FAILED at {len(leaky)} point(s)"]
    if breached:
        lines = [f"SLO budgets tripped at {len(breached)} point(s):"]
        for key in breached:
            point = sweep.results[key]
            sessions = ", ".join(str(s) for s in point.violating_sessions)
            lines.append(f"  {_point_label(key)}: "
                         f"{len(point.slo_violations)} violation(s)"
                         + (f", sessions {sessions}" if sessions else ""))
        return 2, lines
    return 0, []


def cmd_churn(args: argparse.Namespace) -> int:
    """Run the session-churn workload (single point or --axis sweep).

    Exit status: 0 healthy; 1 when the post-drain resource-leak
    invariant fails (at any sweep point); 2 when every invariant holds
    but a declared ``--slo`` budget tripped.  Both are CI gates.
    """
    args.telemetry = args.telemetry or bool(
        args.trace_out or args.export_out or args.report_out
    )
    if args.axis:
        return cmd_sweep(args)
    spec = _spec(args)
    checkpointing = _checkpointing_from_args(args)
    checkpoint = {}
    if checkpointing is not None:
        checkpoint = dict(
            checkpoint_every=checkpointing.every,
            checkpoint_path=str(checkpointing.point_path(("churn",))),
            resume=True,
        )
    result = args.kind.runner()(
        spec, health_path=args.health_out, health_every=args.health_every, **checkpoint
    )
    payload = args.kind.summary(result)
    if result.checkpoint is not None:
        payload["checkpoint"] = result.checkpoint
    recorder = result.recorder
    export = None
    if recorder is not None:
        payload["telemetry_channels"] = recorder.telemetry.names()
        payload["spans"] = len(recorder.spans)
        payload["dropped"] = recorder.dropped_summary()
        if args.trace_out:
            _write(args.trace_out, write_trace_json, recorder)
        if args.export_out or args.report_out:
            export = recorder.export()
        if args.export_out:
            _write(args.export_out, _dump_json, export)
    if args.report_out and result.health is not None:
        # Full heartbeat trail when one was written; else just the final
        # snapshot (sparklines then come from the export, if any).
        trail = (
            read_health(args.health_out) if args.health_out
            else [result.health]
        )
        html = render_report(trail, export=export, title="churn run health")
        Path(args.report_out).write_text(html, encoding="utf-8")
    if args.bench_out:
        _write(args.bench_out, _dump_json, {"churn": payload})
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
        Path(args.out).write_text(html, encoding="utf-8")
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(html)
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate Figure 3/4/5 and print their tables; ``--out DIR`` also
    writes each figure as ``<name>.json`` and ``<name>.csv`` and the
    tables as ``summary.txt``."""
    store = enable_figure_cache(args.cache_dir) if args.cache_dir else None
    options = dict(full=args.full, jobs=args.jobs)
    figures = {}
    if args.which in ("fig3", "all"):
        figures["figure3"] = figure3(args.loads, **options)
    if args.which in ("fig4", "all"):
        figures["figure4"] = figure4(args.loads, **options)
    if args.which in ("fig5", "all"):
        figures["figure5a"], figures["figure5b"] = figure5(args.loads, **options)
    summary = "\n\n".join(figure.table() for figure in figures.values()) + "\n"
    # A blank line follows every table but Figure 5b's, which ends the output.
    print(summary, end="" if "figure5b" in figures else "\n")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, figure in figures.items():
            _write(out / f"{name}.json", write_figure_json, figure)
            _write(out / f"{name}.csv", write_figure_csv, figure)
            print(f"wrote {out / name}.{{json,csv}}")
        (out / "summary.txt").write_text(summary, encoding="utf-8")
        print(f"wrote {out / 'summary.txt'}")
    if store is not None:
        stats = store.stats()
        print(
            f"figure cache [{stats['root']}]: {stats['hits']} hits, "
            f"{stats['misses']} misses, {stats['writes']} written "
            f"(hit ratio {stats['hit_ratio']:.2f})"
        )
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
    run_parser.set_defaults(func=cmd_run, kind=_KINDS["single_router"])

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
    obs_parser.set_defaults(func=cmd_obs, kind=_KINDS["single_router"])

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
        "--network", dest="kind", action="store_const", const=_KINDS["network"],
        help="sweep the multi-router cluster (NetworkExperimentSpec axes: "
             "topology=mesh8x8,torus16x16,..., routing, target_link_load, ...)",
    )
    _add_network_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="periodic per-point checkpoints under DIR; "
             "rerunning the sweep resumes from them",
    )
    sweep_parser.add_argument(
        "--checkpoint-every", type=int, default=10000, metavar="CYCLES",
    )
    sweep_parser.add_argument("--json", action="store_true", help="JSON output")
    sweep_parser.set_defaults(
        func=cmd_sweep, kind=_KINDS["single_router"], parser=sweep_parser
    )

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
    figures_parser.add_argument(
        "--loads", type=lambda text: tuple(float(x) for x in text.split(",")),
        default=DEFAULT_LOADS, metavar="L1,L2,...",
        help="comma-separated offered loads (default: "
             + ",".join(f"{load:g}" for load in DEFAULT_LOADS) + ")",
    )
    figures_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write figure{3,4,5a,5b}.{json,csv} and summary.txt "
             "(all tables) into DIR",
    )
    figures_parser.set_defaults(func=cmd_figures)

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
        "--network", dest="kind", action="store_const", const=_KINDS["network"],
        help="sweep NetworkExperimentSpec axes over the multi-router cluster",
    )
    _add_network_arguments(submit_parser)
    submit_parser.add_argument(
        "--checkpoint-every", type=int, default=10000, metavar="CYCLES",
        help="per-point checkpoint period workers use (default 10000)",
    )
    submit_parser.set_defaults(
        func=cmd_fabric_submit, kind=_KINDS["single_router"], parser=submit_parser
    )

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
    saturation_parser.set_defaults(func=cmd_saturation, kind=_KINDS["single_router"])

    network_parser = sub.add_parser(
        "network", help="multi-router cluster experiment"
    )
    _add_network_arguments(network_parser)
    network_parser.add_argument("--warmup", dest="warmup_cycles", type=int)
    network_parser.add_argument("--cycles", dest="measure_cycles", type=int)
    network_parser.add_argument("--seed", type=int)
    network_parser.add_argument("--json", action="store_true")
    network_parser.set_defaults(func=cmd_network, kind=_KINDS["network"])

    churn_parser = sub.add_parser(
        "churn", help="open-loop session-churn workload over the probe protocol"
    )
    churn_parser.add_argument("--sessions", dest="num_sessions", type=int,
                              default=10000, help="total session arrivals")
    churn_parser.add_argument("--interarrival", dest="mean_interarrival_cycles",
                              type=float, default=400.0,
                              help="mean Poisson inter-arrival gap (cycles)")
    churn_parser.add_argument("--holding", dest="mean_holding_cycles",
                              type=float, default=20000.0,
                              help="mean session lifetime (cycles)")
    churn_parser.add_argument("--vbr-fraction", type=float, default=0.3)
    churn_parser.add_argument("--renegotiation-fraction", type=float, default=0.25,
                              help="fraction of VBR sessions renegotiating mid-life")
    churn_parser.add_argument("--diurnal-amplitude", type=float, default=0.0,
                              help="sinusoidal arrival-rate modulation depth [0,1)")
    churn_parser.add_argument("--nodes", dest="num_nodes", type=int, default=12)
    churn_parser.add_argument("--seed", type=int, default=1)
    churn_parser.add_argument("--no-police", dest="police", action="store_false",
                              help="disable per-session token-bucket policing")
    churn_parser.add_argument("--telemetry", action="store_true",
                              help="attach the flight recorder (churn.* channels)")
    churn_parser.add_argument(
        "--axis", action="append", default=[], metavar="NAME=V1,V2,...",
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
        "--slo", dest="slos", action="append", default=[],
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
    churn_parser.set_defaults(func=cmd_churn, kind=_KINDS["churn"])

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
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
