"""Chrome trace-event export: flit lifecycles as Perfetto-loadable JSON.

The flight recorder stores lifecycle events as compact typed tuples
(``(kind, time, a, b, connection_id, flit_id)`` — no string formatting on
the hot path); this module turns them into the Chrome trace-event JSON
object format that ``ui.perfetto.dev`` and ``chrome://tracing`` load
directly:

* each delivered flit becomes an async span (``ph: "b"``/``"e"``) from
  injection to delivery on its input-port track, so a loaded router shows
  as stacked per-port lanes of flit lifetimes;
* inject / grant / deliver (and cut-through) become instant events
  (``ph: "i"``) carrying the flit and connection ids in ``args``;
* connection open/close and round boundaries become instant events on a
  control track;
* telemetry channels become counter events (``ph: "C"``), which Perfetto
  renders as time-series tracks alongside the spans;
* the run manifest rides in the top-level ``metadata`` object.

Timestamps are emitted in microseconds (``ts``), converted from flit
cycles via the configured cycle time — by default 1 cycle = 1 µs so
cycle numbers stay readable in the UI.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

# ----- typed event kinds (stored, not stringly) -----------------------------

INJECT = 0
GRANT = 1
DELIVER = 2
CUTTHROUGH = 3
CONN_OPEN = 4
CONN_CLOSE = 5
ROUND = 6

KIND_NAMES = {
    INJECT: "inject",
    GRANT: "grant",
    DELIVER: "deliver",
    CUTTHROUGH: "cutthrough",
    CONN_OPEN: "connection_open",
    CONN_CLOSE: "connection_close",
    ROUND: "round",
}

#: One recorded lifecycle event.  ``a``/``b`` are kind-specific small ints
#: (ports, VC indices, delays); -1 means not applicable.
TraceEvent = Tuple[int, int, int, int, int, int]

#: Chrome trace-event phases this exporter emits / the validator accepts.
KNOWN_PHASES = frozenset("XBEbeiCM")

_LIFECYCLE_KINDS = (INJECT, GRANT, DELIVER, CUTTHROUGH)

#: Synthetic pid for the router process in the trace.
_ROUTER_PID = 1
#: tid used for the control track (connections, rounds).
_CONTROL_TID = 1000
#: tid used for counter tracks.
_COUNTER_TID = 0


def _instant(
    name: str, ts: float, tid: int, args: Dict[str, Any]
) -> Dict[str, Any]:
    return {
        "name": name,
        "cat": "lifecycle",
        "ph": "i",
        "ts": ts,
        "pid": _ROUTER_PID,
        "tid": tid,
        "s": "t",
        "args": args,
    }


def to_chrome_trace(
    events: Iterable[TraceEvent],
    manifest: Optional[Mapping[str, Any]] = None,
    telemetry: Optional[Mapping[str, Mapping[str, Any]]] = None,
    us_per_cycle: float = 1.0,
    span_events: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Build the Chrome trace-event JSON object for ``events``.

    ``telemetry`` is a :meth:`TelemetryHub.snapshot`-shaped mapping whose
    retained samples become counter tracks.  ``span_events`` are
    pre-built trace events (the control-plane span tracks from
    :meth:`SpanTracer.to_trace_events`) appended verbatim, so session
    trees land in the same timeline as the flit lifecycles.  The result
    is JSON-safe and validates under :func:`validate_chrome_trace`.
    """
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _ROUTER_PID,
            "tid": 0,
            "args": {"name": "router"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _ROUTER_PID,
            "tid": _CONTROL_TID,
            "args": {"name": "control"},
        },
    ]
    named_ports = set()
    # First injection time per flit, for the async span begin.
    span_begin: Dict[int, Tuple[float, int]] = {}

    for kind, time, a, b, connection_id, flit_id in events:
        ts = time * us_per_cycle
        if kind in _LIFECYCLE_KINDS:
            if a >= 0 and a not in named_ports:
                named_ports.add(a)
                trace_events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": _ROUTER_PID,
                        "tid": a,
                        "args": {"name": f"port {a}"},
                    }
                )
            args: Dict[str, Any] = {
                "flit": flit_id,
                "connection": connection_id,
            }
            if kind == INJECT:
                args["vc"] = b
                span_begin[flit_id] = (ts, a)
            elif kind == GRANT:
                args["vc"] = b
            elif kind == DELIVER:
                args["output_port"] = a
                args["delay_cycles"] = b
            elif kind == CUTTHROUGH:
                args["output_port"] = b
                # A cut-through flit bypasses the synchronous pipeline, so
                # its span begins here rather than at a prior injection.
                span_begin.setdefault(flit_id, (ts, a))
            tid = a if a >= 0 else _CONTROL_TID
            trace_events.append(_instant(KIND_NAMES[kind], ts, tid, args))
            if kind == DELIVER and flit_id in span_begin:
                begin_ts, begin_tid = span_begin.pop(flit_id)
                span_args = {"connection": connection_id}
                trace_events.append(
                    {
                        "name": f"flit {flit_id}",
                        "cat": "flit",
                        "ph": "b",
                        "id": flit_id,
                        "ts": begin_ts,
                        "pid": _ROUTER_PID,
                        "tid": begin_tid,
                        "args": span_args,
                    }
                )
                trace_events.append(
                    {
                        "name": f"flit {flit_id}",
                        "cat": "flit",
                        "ph": "e",
                        "id": flit_id,
                        "ts": ts,
                        "pid": _ROUTER_PID,
                        "tid": begin_tid,
                        "args": span_args,
                    }
                )
        elif kind in (CONN_OPEN, CONN_CLOSE):
            trace_events.append(
                _instant(
                    KIND_NAMES[kind],
                    ts,
                    _CONTROL_TID,
                    {"connection": connection_id, "port": a, "vc": b},
                )
            )
        elif kind == ROUND:
            trace_events.append(
                _instant("round", ts, _CONTROL_TID, {"cycle": time})
            )
        else:
            raise ValueError(f"unknown trace event kind {kind}")

    if telemetry:
        for name, channel in sorted(telemetry.items()):
            for sample_time, value in channel.get("samples", []):
                trace_events.append(
                    {
                        "name": name,
                        "cat": "telemetry",
                        "ph": "C",
                        "ts": sample_time * us_per_cycle,
                        "pid": _ROUTER_PID,
                        "tid": _COUNTER_TID,
                        "args": {"value": value},
                    }
                )

    if span_events:
        trace_events.extend(span_events)

    payload: Dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    }
    if manifest is not None:
        payload["metadata"] = dict(manifest)
    return payload


def validate_chrome_trace(payload: Any) -> Dict[str, int]:
    """Check ``payload`` against the Chrome trace-event object format.

    Raises ``ValueError`` naming the first violation; returns per-phase
    event counts on success.  This is the schema check tests run over
    exported traces before calling them loadable.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"trace must be a JSON object, got {type(payload).__name__}")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace must carry a 'traceEvents' list")
    if "metadata" in payload and not isinstance(payload["metadata"], dict):
        raise ValueError("'metadata' must be an object")
    counts: Dict[str, int] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        phase = event.get("ph")
        if not isinstance(phase, str) or phase not in KNOWN_PHASES:
            raise ValueError(f"traceEvents[{i}] has unknown phase {phase!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"traceEvents[{i}] is missing a string 'name'")
        if not isinstance(event.get("pid"), int):
            raise ValueError(f"traceEvents[{i}] is missing an integer 'pid'")
        if not isinstance(event.get("tid"), int):
            raise ValueError(f"traceEvents[{i}] is missing an integer 'tid'")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(
                    f"traceEvents[{i}] needs a non-negative numeric 'ts'"
                )
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"traceEvents[{i}] ('X') needs a non-negative 'dur'"
                )
        if phase in "be" and "id" not in event:
            raise ValueError(f"traceEvents[{i}] ('{phase}') needs an 'id'")
        counts[phase] = counts.get(phase, 0) + 1
    return counts


def lifecycle_by_flit(
    events: Iterable[TraceEvent],
) -> Dict[int, List[str]]:
    """Map each flit id to the ordered list of its lifecycle kind names.

    Tests use this to assert every delivered flit carries the full
    inject → grant → deliver chain (or the cut-through equivalent).
    """
    out: Dict[int, List[str]] = {}
    for kind, _time, _a, _b, _conn, flit_id in events:
        if kind in _LIFECYCLE_KINDS and flit_id >= 0:
            out.setdefault(flit_id, []).append(KIND_NAMES[kind])
    return out
