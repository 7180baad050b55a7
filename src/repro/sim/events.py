"""Discrete-event machinery: timestamped events and a calendar queue.

The queue keeps one FIFO **lane** per due time, plus a heap of the lane
times.  Events fire in ``(time, filing order)`` order: across times by the
heap, within a time by the lane, because appending in filing order *is*
that order.  Filing into a time that already has a lane costs one append;
only a new lane costs a ``heappush``.  An event filed for the time whose
lane is being drained lands at the end of that lane and fires in the same
drain, after every event filed before it — the order a ``(time,
sequence)`` heap gives.

A periodic source files one :class:`Event` once and then re-files the same
object each period (:meth:`EventQueue.refile`), so a steady stream costs no
allocation per firing.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional


class Event:
    """A scheduled callback.

    ``queued`` is True from filing until the event fires or is cancelled;
    the queue skips an entry whose event is no longer queued, so
    cancellation is O(1).  A cancelled event is never filed again.
    """

    __slots__ = ("time", "action", "payload", "queued", "cancelled")

    def __init__(
        self, time: float, action: Callable[..., None], payload: Any = None
    ) -> None:
        self.time = time
        self.action = action
        self.payload = payload
        self.queued = False
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the queue discards it instead of firing it.

        :meth:`EventQueue.cancel` also keeps the queue's length exact.
        """
        self.cancelled = True
        self.queued = False

    def fire(self) -> None:
        """Invoke the callback (with the payload if one was given)."""
        if self.payload is None:
            self.action()
        else:
            self.action(self.payload)

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}{state})"


class EventQueue:
    """Calendar queue: one FIFO lane per due time (see the module docstring).

    ``Simulator._step`` drains the due lanes inline; :meth:`pop_due`,
    :meth:`pop` and :meth:`peek_time` are the same order one event at a
    time.  Cancelled entries stay in their lane and are skipped.
    """

    def __init__(self) -> None:
        #: time -> events filed for it, in filing order.
        self._lanes: Dict[float, List[Event]] = {}
        #: Heap of the times that have a lane.
        self._times: List[float] = []
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self, time: float, action: Callable[..., None], payload: Any = None
    ) -> Event:
        """Schedule ``action`` at ``time``; returns the event for cancellation."""
        event = Event(time, action, payload)
        self.refile(event, time)
        return event

    def refile(self, event: Event, time: float) -> None:
        """File ``event`` (one that has fired, or was never filed) at ``time``.

        Filing an event that is still queued, or one that was cancelled,
        raises ``ValueError``: either would let one event fire twice.
        """
        if event.queued or event.cancelled:
            raise ValueError(f"{event!r} is queued or cancelled: cannot file it")
        event.time = time
        event.queued = True
        lanes = self._lanes
        if time in lanes:
            lanes[time].append(event)
        else:
            lanes[time] = [event]
            heappush(self._times, time)
        self._live += 1

    def cancel(self, event: Event) -> None:
        """Cancel a queued event; a no-op for one that fired or was never
        filed."""
        if event.queued:
            event.cancel()
            self._live -= 1

    def _front(self) -> Optional[List[Event]]:
        """The earliest lane, its head a queued event; drops spent entries
        and lanes on the way.  None when nothing is queued."""
        times = self._times
        lanes = self._lanes
        while times:
            lane = lanes[times[0]]
            while lane:
                if lane[0].queued:
                    return lane
                del lane[0]
            del lanes[heappop(times)]
        return None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None when empty."""
        lane = self._front()
        return None if lane is None else lane[0].time

    def pop(self) -> Event:
        """Remove and return the next live event."""
        lane = self._front()
        if lane is None:
            raise IndexError("pop from empty EventQueue")
        return self._take(lane)

    def pop_due(self, now: float) -> Optional[Event]:
        """Pop the next live event at or before ``now``, or None."""
        lane = self._front()
        if lane is None or lane[0].time > now:
            return None
        return self._take(lane)

    def _take(self, lane: List[Event]) -> Event:
        event = lane.pop(0)
        event.queued = False
        self._live -= 1
        return event
