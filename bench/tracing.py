"""Span tracer installed from outside the program.

The traced run wraps the public entry points of each simulator layer at
class level -- no file under ``src/`` knows about it.  Each wrapper opens a
span (name, start, end, parent) on one per-process stack; a layer's self
time is its span's duration minus the part its child spans cover, so the
self times of all layers add up to the duration of the root spans.

Hooks must be installed *before* the scenario is built: the kernel captures
bound ``tick`` methods at ``add_ticker`` time, so a class patched afterwards
would never see a call.

A hook whose class or method no longer exists is listed in
``Tracer.missing`` and its metrics come out as ``None``; the traced run
never fails because a refactor removed a hook target.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Full spans are kept for the first cycles only (the aggregate covers the
#: whole run); the count cap bounds the file on many-router networks.
SPAN_CYCLE_LIMIT = 2000
SPAN_COUNT_LIMIT = 100_000

#: (span name, module, classes, method).  The span name is the layer's
#: module name plus the entry point; :func:`layer_metrics` derives the
#: declared metrics from it.
HOOKS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("sim.engine.run", "repro.sim.engine", ("Simulator",), "run"),
    ("sim.events.callback", "repro.sim.events", ("Event",), "fire"),
    ("core.router.tick", "repro.core.router", ("Router",), "tick"),
    ("core.router.inject", "repro.core.router", ("Router",), "inject"),
    ("core.link_scheduler.candidates", "repro.core.link_scheduler",
     ("LinkScheduler",), "candidates"),
    ("core.link_scheduler.round_boundary", "repro.core.link_scheduler",
     ("LinkScheduler",), "on_round_boundary"),
    ("core.switch_scheduler.schedule", "repro.core.switch_scheduler",
     ("GreedyPriorityScheduler", "DecScheduler", "PerfectSwitchScheduler"),
     "schedule"),
    ("core.arena.tick", "repro.core.arena", ("NetworkArena",), "tick"),
    ("network.connection.establish", "repro.network.connection",
     ("ConnectionManager",), "establish"),
    ("network.probe_protocol.establish", "repro.network.probe_protocol",
     ("ProbeProtocol",), "establish"),
    ("network.probe_protocol.teardown", "repro.network.probe_protocol",
     ("ProbeProtocol",), "teardown"),
    ("network.probe_protocol.renegotiate", "repro.network.probe_protocol",
     ("ProbeProtocol",), "renegotiate"),
    ("ckpt.codec.save", "repro.ckpt.codec", ("CheckpointCodec",), "save"),
    ("ckpt.codec.load", "repro.ckpt.codec", ("CheckpointCodec",), "load"),
    ("fabric.queue.submit", "repro.fabric.queue", ("FabricQueue",), "submit"),
    ("fabric.queue.claim", "repro.fabric.queue", ("FabricQueue",), "try_claim"),
    ("fabric.store.put", "repro.fabric.store", ("ResultStore",), "put"),
    ("fabric.store.get", "repro.fabric.store", ("ResultStore",), "get"),
    ("fabric.worker.point", "repro.fabric.worker", ("FabricWorker",),
     "process_point"),
)

#: The link plane is hooked through the two registration methods: the
#: handler they store is replaced by a traced forwarder.
LINK_FORWARD = "network.network.link_forward"
HANDLER_SETTERS = ("set_output_handler", "set_credit_return_handler")

#: Root span opened by the benchmark around the timed region; its self
#: time is what no layer hook covers.
ROOT = "bench.timed_region"

TIMED: Tuple[str, ...] = ("timed",)
WHOLE_RUN: Tuple[str, ...] = ("setup", "timed", "checks")


class _TracedHandler:
    """Stand-in stored by ``Router.set_*_handler``: forwards to the real
    handler inside a span.  A class, not a closure, so a traced network
    still pickles."""

    __slots__ = ("handler",)

    def __init__(self, handler: Callable[..., None]) -> None:
        self.handler = handler

    def forward(self, *args: Any) -> None:
        self.handler(*args)

    __call__ = forward  # replaced by the traced forwarder at install


class Tracer:
    """Aggregates spans per (name, parent) and keeps the first ones whole."""

    def __init__(self) -> None:
        self.stack: List[list] = []  # open frames: [name, child seconds]
        #: name -> parent name -> [calls, seconds, self seconds]
        self.totals: Dict[str, Dict[Optional[str], list]] = {}
        #: Exact counts taken at the same boundaries as the spans.
        self.counts: Dict[str, int] = {}
        #: Every duration of the few spans reported as a median.
        self.durations: Dict[str, List[float]] = {"fabric.worker.point": []}
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        self.recording = True
        #: Span names with at least one live hook, and the targets that
        #: no longer exist (reported as ``trace_missing``).
        self.hooked: set = {ROOT}
        self.missing: List[str] = []
        #: label -> what :meth:`end_phase` filed under it.
        self.phases: Dict[str, Dict[str, Any]] = {}
        #: ``fast_forwarded_cycles`` of the simulator whose run() is open.
        self.skipped_at_entry = 0

    # ----- wrapping ---------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        tally: Optional[Callable[[Any, tuple], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span called ``name``; ``tally(result, args)``
        records counts after a call that returned."""
        stack = self.stack
        spans = self.spans
        by_parent = self.totals.setdefault(name, {})
        durations = self.durations.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                seconds = end - start
                parent_name = None
                if parent is not None:
                    parent[1] += seconds
                    parent_name = parent[0]
                record = by_parent.get(parent_name)
                if record is None:
                    record = by_parent[parent_name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += seconds
                record[2] += seconds - frame[1]
                if tracer.recording:
                    spans.append((name, start, end, parent_name))
                if durations is not None:
                    durations.append(seconds)
            if tally is not None:
                tally(result, args)
            return result

        return traced

    def install(self) -> None:
        """Patch every hook target that still exists."""
        tallies = self._tallies()
        for name, module_name, class_names, method in HOOKS:
            for class_name in class_names:
                cls = _resolve(module_name, class_name)
                if cls is None or not hasattr(cls, method):
                    self.missing.append(f"{name} ({class_name}.{method})")
                    continue
                self.hooked.add(name)
                target = getattr(cls, method)
                if name == "sim.engine.run":
                    target = self._noting_skipped(target)
                traced = self.wrap(name, target, tallies.get(name))
                if isinstance(inspect.getattr_static(cls, method), staticmethod):
                    traced = staticmethod(traced)
                setattr(cls, method, traced)
        self._install_link_forward()

    def _noting_skipped(self, run: Callable[..., int]) -> Callable[..., int]:
        tracer = self

        @functools.wraps(run)
        def noting(sim: Any, cycles: int) -> int:
            tracer.skipped_at_entry = getattr(sim, "fast_forwarded_cycles", 0)
            return run(sim, cycles)

        return noting

    def _install_link_forward(self) -> None:
        router = _resolve("repro.core.router", "Router")
        setters = [s for s in HANDLER_SETTERS if router and hasattr(router, s)]
        if len(setters) != len(HANDLER_SETTERS):
            self.missing.append(f"{LINK_FORWARD} (Router.set_*_handler)")
            return
        self.hooked.add(LINK_FORWARD)
        _TracedHandler.__call__ = self.wrap(LINK_FORWARD, _TracedHandler.forward)
        for setter in setters:
            setattr(router, setter, _storing_traced(getattr(router, setter)))

    def _tallies(self) -> Dict[str, Callable[[Any, tuple], None]]:
        counts = self.counts
        tracer = self

        def count(key: str, amount: int = 1) -> None:
            counts[key] = counts.get(key, 0) + amount

        def tick(_result: Any, args: tuple) -> None:
            # args = (router, cycle): stop keeping whole spans once the
            # simulation is past the first cycles.
            if tracer.recording and (
                args[1] >= SPAN_CYCLE_LIMIT or len(tracer.spans) >= SPAN_COUNT_LIMIT
            ):
                tracer.recording = False

        def run(result: Any, args: tuple) -> None:
            # Simulator.run is not re-entered, so the previous total of
            # this simulator is still the one noted when the span opened.
            count("sim.engine.cycles_run", result)
            skipped = getattr(args[0], "fast_forwarded_cycles", 0)
            count("sim.engine.cycles_fast_forwarded", skipped - tracer.skipped_at_entry)

        def inject(result: Any, _args: tuple) -> None:
            if not result:
                count("core.router.inject_refused")

        def candidates(result: Any, _args: tuple) -> None:
            if result:
                count("core.link_scheduler.candidates_returned", len(result))
            else:
                count("core.link_scheduler.empty_calls")

        def schedule(result: Any, _args: tuple) -> None:
            if result:
                count("core.switch_scheduler.grants", len(result))

        def establish(result: Any, _args: tuple) -> None:
            if result is None:
                count("network.connection.establish_refused")

        def save(result: Any, _args: tuple) -> None:
            count("ckpt.codec.bytes_written", result.payload_bytes)

        def get(result: Any, _args: tuple) -> None:
            count("fabric.store.hits" if result is not None else "fabric.store.misses")

        return {
            "core.router.tick": tick,
            "sim.engine.run": run,
            "core.router.inject": inject,
            "core.link_scheduler.candidates": candidates,
            "core.switch_scheduler.schedule": schedule,
            "network.connection.establish": establish,
            "ckpt.codec.save": save,
            "fabric.store.get": get,
        }

    # ----- phases ------------------------------------------------------------

    def end_phase(self, label: str) -> None:
        """File everything recorded since the last call under ``label`` and
        start afresh, keeping the hooks.  The child ends three phases:
        ``setup``, ``timed`` and ``checks``."""
        self.phases[label] = {
            "totals": {
                name: {parent: list(record) for parent, record in by_parent.items()}
                for name, by_parent in self.totals.items()
            },
            "counts": dict(self.counts),
            "durations": {name: list(v) for name, v in self.durations.items()},
        }
        for by_parent in self.totals.values():
            by_parent.clear()
        self.counts.clear()
        for values in self.durations.values():
            values.clear()

    # ----- reading ----------------------------------------------------------

    def _sum(self, name: str, column: int, phases: Tuple[str, ...]) -> Optional[float]:
        if name not in self.hooked:
            return None
        return sum(
            record[column]
            for phase in phases
            for record in self.phases[phase]["totals"].get(name, {}).values()
        )

    def calls(self, name: str, phases: Tuple[str, ...] = TIMED) -> Optional[int]:
        total = self._sum(name, 0, phases)
        return None if total is None else int(total)

    def seconds(self, name: str, phases: Tuple[str, ...] = TIMED) -> Optional[float]:
        return self._sum(name, 1, phases)

    def self_seconds(self, name: str, phases: Tuple[str, ...] = TIMED) -> Optional[float]:
        return self._sum(name, 2, phases)

    def count(
        self, key: str, hook: str, phases: Tuple[str, ...] = TIMED
    ) -> Optional[int]:
        """An exact count taken by ``hook``'s tally (None when unhooked)."""
        if hook not in self.hooked:
            return None
        return sum(self.phases[phase]["counts"].get(key, 0) for phase in phases)

    def timed_self_seconds(self) -> Dict[str, float]:
        """Self time per span name inside the timed region; the values add
        up to the root span's duration."""
        return {
            name: sum(record[2] for record in by_parent.values())
            for name, by_parent in self.phases["timed"]["totals"].items()
            if by_parent
        }

    def span_records(self) -> List[Dict[str, Any]]:
        """The whole spans kept from the first cycles, as JSON rows."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def layer_metrics(t: "Tracer", summary: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Per-layer metrics of the timed region, by their declared names.

    ``None`` means the hook's target no longer exists (or, for the arena,
    that none is installed).  Three numbers come from outside the timed
    region and say so: connection establishment and grid submission happen
    during set-up, and the only checkpoint loads are the restore check's.
    """
    def ratio(top: Optional[float], bottom: Optional[float]) -> Optional[float]:
        if top is None or bottom is None:
            return None
        return top / bottom if bottom else 0.0

    cycles_run = t.count("sim.engine.cycles_run", "sim.engine.run")
    skipped = t.count("sim.engine.cycles_fast_forwarded", "sim.engine.run")
    candidates = "core.link_scheduler.candidates"
    schedule = "core.switch_scheduler.schedule"
    establish = "network.connection.establish"
    returned = t.count("core.link_scheduler.candidates_returned", candidates)
    probe = summary.get("probe", {})
    point_s = t.phases["timed"]["durations"]["fabric.worker.point"]
    return {
        "sim.engine.run_self_s": t.self_seconds("sim.engine.run"),
        "sim.engine.steps_executed": (
            None if cycles_run is None else cycles_run - skipped
        ),
        "sim.engine.cycles_fast_forwarded": skipped,
        "sim.events.fired": t.calls("sim.events.callback"),
        "sim.events.callback_self_s": t.self_seconds("sim.events.callback"),
        "core.router.inject_s": t.seconds("core.router.inject"),
        "core.router.inject_calls": t.calls("core.router.inject"),
        "core.router.inject_refused": t.count(
            "core.router.inject_refused", "core.router.inject"
        ),
        "core.router.tick_calls": t.calls("core.router.tick"),
        "core.router.tick_self_s": t.self_seconds("core.router.tick"),
        "core.router.flit_hops": t.count("core.switch_scheduler.grants", schedule),
        "core.link_scheduler.candidates_s": t.seconds(candidates),
        "core.link_scheduler.candidates_calls": t.calls(candidates),
        "core.link_scheduler.candidates_returned": returned,
        "core.link_scheduler.empty_call_ratio": ratio(
            t.count("core.link_scheduler.empty_calls", candidates), t.calls(candidates)
        ),
        "core.link_scheduler.round_boundary_s": t.seconds(
            "core.link_scheduler.round_boundary"
        ),
        "core.switch_scheduler.schedule_s": t.seconds(schedule),
        "core.switch_scheduler.schedule_calls": t.calls(schedule),
        "core.switch_scheduler.grant_ratio": ratio(
            t.count("core.switch_scheduler.grants", schedule), returned
        ),
        "network.network.link_forward_s": t.self_seconds(LINK_FORWARD),
        "network.network.link_forward_calls": t.calls(LINK_FORWARD),
        "core.arena.tick_s": t.seconds("core.arena.tick") or None,
        "network.connection.establish_s": t.seconds(establish, WHOLE_RUN),
        "network.connection.establish_calls": t.calls(establish, WHOLE_RUN),
        "network.connection.establish_refused": t.count(
            "network.connection.establish_refused", establish, WHOLE_RUN
        ),
        "network.probe_protocol.establish_s": t.seconds("network.probe_protocol.establish"),
        "network.probe_protocol.establish_calls": t.calls("network.probe_protocol.establish"),
        "network.probe_protocol.refused": probe.get("refused", 0),
        "network.probe_protocol.backtracks": probe.get("backtracks", 0),
        "network.probe_protocol.teardown_s": t.seconds("network.probe_protocol.teardown"),
        "network.probe_protocol.renegotiate_s": t.seconds(
            "network.probe_protocol.renegotiate"
        ),
        "network.probe_protocol.setup_p99_cycles": probe.get("setup_p99_cycles", 0),
        "ckpt.codec.save_s": t.seconds("ckpt.codec.save"),
        "ckpt.codec.load_s": t.seconds("ckpt.codec.load", WHOLE_RUN),
        "ckpt.codec.saves": t.calls("ckpt.codec.save"),
        "ckpt.codec.bytes_written": t.count("ckpt.codec.bytes_written", "ckpt.codec.save"),
        "fabric.queue.submit_s": t.seconds("fabric.queue.submit", WHOLE_RUN),
        "fabric.queue.claim_s": t.seconds("fabric.queue.claim"),
        "fabric.queue.claims": t.calls("fabric.queue.claim"),
        "fabric.store.put_s": t.seconds("fabric.store.put"),
        "fabric.store.get_s": t.seconds("fabric.store.get"),
        "fabric.store.hits": t.count("fabric.store.hits", "fabric.store.get"),
        "fabric.store.misses": t.count("fabric.store.misses", "fabric.store.get"),
        "fabric.worker.point_s": median(point_s) if point_s else 0.0,
        "fabric.warm_rerun_s": summary.get("warm_rerun_s", 0.0),
    }


def _resolve(module_name: str, class_name: str) -> Optional[type]:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None)


def _storing_traced(setter: Callable[..., None]) -> Callable[..., None]:
    @functools.wraps(setter)
    def set_handler(router: Any, port: int, handler: Callable[..., None]) -> None:
        setter(router, port, _TracedHandler(handler))

    return set_handler
