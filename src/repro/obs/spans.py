"""Hierarchical control-plane spans: causal traces of session lifecycles.

The flit trace answers "where did this flit go"; it cannot answer "why
did this *session's* setup take 180 cycles" — establishment is a walk of
probe/backtrack/ack tokens whose cost structure is per hop, not per
flit.  This module records that structure as **spans**: bounded,
causally-linked ``(begin, end)`` intervals forming a tree per session —

* a ``session`` root span covering the whole lifetime,
* a ``setup`` child covering probe + ack, with one ``hop`` /
  ``backtrack`` grandchild per link the probe searched and an ``ack``
  child for the return walk,
* a ``renegotiation`` child with one ``set_bandwidth`` grandchild per
  hop (plus ``rollback`` grandchildren when a NACK unwinds them),
* a ``teardown`` child with per-hop grandchildren and an optional
  ``drain`` child for the retry window while in-flight flits empty out.

Emission sites live in :mod:`repro.network.probe_protocol` and
:mod:`repro.harness.churn`, guarded by ``recorder.enabled`` exactly like
the flit trace.  Storage is fixed: once ``capacity`` spans are retained,
new ``begin`` calls return the :data:`DROPPED` sentinel (id 0) and are
counted, never stored — ``end(DROPPED)`` is a no-op, so call sites need
no extra guards.

Everything is plain data (dataclass of ints/strings/dicts), so a
simulation with open spans checkpoints through the codec unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Sentinel span id returned by ``begin`` when the tracer is full (and
#: used as the "no parent" / "no span" value on protocol state).
DROPPED = 0

#: Default retained-span capacity.  Spans are small (~200 bytes), so
#: this bounds the store around 10 MB while covering ~10k sessions of
#: churn at typical span counts (5-15 spans per session).
DEFAULT_SPAN_CAPACITY = 50_000

#: Synthetic pid for the control-plane track in Chrome trace exports
#: (the flit/router track uses pid 1).
CONTROL_PLANE_PID = 2

#: Span statuses with a defined meaning; ``status`` is free-form but
#: these are what the protocol emits and the dashboard colour-codes.
STATUS_OPEN = "open"
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_BLOCKED = "blocked"
STATUS_REFUSED = "refused"
STATUS_ROLLED_BACK = "rolled_back"


@dataclass
class Span:
    """One closed-or-open interval in the control-plane tree."""

    span_id: int
    parent_id: int
    name: str
    category: str
    start: int
    end: int = -1
    status: str = STATUS_OPEN
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end >= 0

    @property
    def duration(self) -> int:
        """Cycles from begin to end (0 while still open)."""
        return self.end - self.start if self.end >= 0 else 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe record of this span."""
        return {
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "args": dict(self.args),
        }


class SpanTracer:
    """Bounded store of causally-linked spans with a query API."""

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._spans: Dict[int, Span] = {}
        self._children: Dict[int, List[int]] = {}
        self._next_id = 1

    # ----- emission ----------------------------------------------------------

    def begin(
        self,
        name: str,
        category: str,
        time: int,
        parent: int = DROPPED,
        **args: Any,
    ) -> int:
        """Open a span; returns its id (or :data:`DROPPED` when full).

        ``parent`` is the id of the causally enclosing span (``DROPPED``
        for a root).  A child of a dropped parent is still recorded as a
        root so partial trees survive capacity pressure.
        """
        if len(self._spans) >= self.capacity:
            self.dropped += 1
            return DROPPED
        span_id = self._next_id
        self._next_id += 1
        if parent and parent not in self._spans:
            parent = DROPPED
        span = Span(span_id, parent, name, category, time, args=args)
        self._spans[span_id] = span
        if parent:
            self._children.setdefault(parent, []).append(span_id)
        return span_id

    def end(
        self, span_id: int, time: int, status: str = STATUS_OK, **args: Any
    ) -> None:
        """Close a span (no-op for the :data:`DROPPED` sentinel)."""
        if span_id == DROPPED:
            return
        span = self._spans.get(span_id)
        if span is None:
            return
        if span.end >= 0:
            raise ValueError(f"span {span_id} ({span.name}) already closed")
        span.end = time
        span.status = status
        if args:
            span.args.update(args)

    def annotate(self, span_id: int, **args: Any) -> None:
        """Attach extra key/values to an open or closed span."""
        span = self._spans.get(span_id)
        if span is not None:
            span.args.update(args)

    def clear(self) -> None:
        """Drop every span (warm-up reset)."""
        self._spans.clear()
        self._children.clear()
        self.dropped = 0
        self._next_id = 1

    # ----- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def open_count(self) -> int:
        """Spans begun but never ended (sessions still alive, or a bug)."""
        return sum(1 for span in self._spans.values() if span.end < 0)

    def get(self, span_id: int) -> Optional[Span]:
        return self._spans.get(span_id)

    def spans(self, category: Optional[str] = None) -> List[Span]:
        """All retained spans (optionally one category), by begin order."""
        if category is None:
            return list(self._spans.values())
        return [s for s in self._spans.values() if s.category == category]

    def roots(self, category: Optional[str] = None) -> List[Span]:
        """Spans with no parent (session roots, normally)."""
        return [
            s
            for s in self.spans(category)
            if s.parent_id == DROPPED
        ]

    def children(self, span_id: int) -> List[Span]:
        """Direct children of a span, in begin order."""
        return [self._spans[c] for c in self._children.get(span_id, [])]

    def critical_path(self, span_id: int) -> List[Span]:
        """The longest-duration descent from ``span_id``.

        At each level the closed child with the largest duration is
        followed, so the returned chain names what dominated the parent's
        wall time — e.g. the hop that dominated a slow setup.
        """
        path: List[Span] = []
        span = self._spans.get(span_id)
        while span is not None:
            path.append(span)
            closed = [c for c in self.children(span.span_id) if c.closed]
            span = max(closed, key=lambda s: s.duration, default=None)
        return path

    def slowest(self, category: str, k: int = 10) -> List[Span]:
        """The ``k`` longest closed spans of a category, slowest first."""
        closed = [s for s in self.spans(category) if s.closed]
        closed.sort(key=lambda s: (-s.duration, s.span_id))
        return closed[:k]

    def quantile_span(self, category: str, q: float) -> Optional[Span]:
        """The span at the ``q``-quantile of closed durations.

        Nearest-rank, matching the harness percentiles: the returned span
        for ``q=0.99`` is *the* p99 setup, so ``critical_path`` on it
        answers "which hop dominated p99 setup".
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        closed = sorted(
            (s for s in self.spans(category) if s.closed),
            key=lambda s: (s.duration, s.span_id),
        )
        if not closed:
            return None
        rank = max(1, math.ceil(q * len(closed)))
        return closed[rank - 1]

    def root_of(self, span_id: int) -> Optional[Span]:
        """Walk parents up to the tree root (the session span)."""
        span = self._spans.get(span_id)
        while span is not None and span.parent_id != DROPPED:
            parent = self._spans.get(span.parent_id)
            if parent is None:
                break
            span = parent
        return span

    # ----- export ------------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        """JSON-safe list of every retained span."""
        return [span.to_dict() for span in self._spans.values()]

    def to_trace_events(self, us_per_cycle: float = 1.0) -> List[Dict[str, Any]]:
        """Chrome trace-event ``X`` (complete) events for closed spans.

        Spans land on a dedicated ``control-plane`` process (pid 2) with
        one thread lane per session tree, so Perfetto shows each
        session's setup/renegotiation/teardown nested under its root
        alongside the flit tracks.  Open spans are skipped (no end yet);
        callers report :attr:`open_count` instead.
        """
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": CONTROL_PLANE_PID,
                "tid": 0,
                "args": {"name": "control-plane"},
            }
        ]
        named_lanes = set()
        root_cache: Dict[int, int] = {}

        def lane(span: Span) -> int:
            cached = root_cache.get(span.span_id)
            if cached is not None:
                return cached
            root = self.root_of(span.span_id)
            tid = root.span_id if root is not None else span.span_id
            root_cache[span.span_id] = tid
            return tid

        for span in self._spans.values():
            if not span.closed:
                continue
            tid = lane(span)
            if tid not in named_lanes:
                named_lanes.add(tid)
                root = self._spans.get(tid)
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": CONTROL_PLANE_PID,
                        "tid": tid,
                        "args": {"name": root.name if root else f"span {tid}"},
                    }
                )
            args = dict(span.args)
            args["span"] = span.span_id
            args["parent"] = span.parent_id
            args["status"] = span.status
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": span.start * us_per_cycle,
                    "dur": span.duration * us_per_cycle,
                    "pid": CONTROL_PLANE_PID,
                    "tid": tid,
                    "args": args,
                }
            )
        return events

    def __repr__(self) -> str:
        return (
            f"SpanTracer(retained={len(self._spans)}/{self.capacity}, "
            f"open={self.open_count}, dropped={self.dropped})"
        )
