"""Discrete-event simulation kernel.

A minimal but complete event calendar: events are scheduled at absolute
or relative times, executed in timestamp order (FIFO among ties, via a
monotone sequence number), and can be cancelled.  The simulated WFMS of
:mod:`repro.wfms` is built on top of this engine.

The calendar is the simulator's hottest data structure, so events are
stored as plain four-slot lists ``[time, sequence, callback, args]``
rather than objects: heap ordering then reduces to C-level list
comparison on ``(time, sequence)`` (the unique sequence number breaks
ties FIFO and guarantees the comparison never reaches the callback
slot).  Cancellation is lazy — the callback slot is nulled in place and
the entry is dropped when it surfaces, with a compaction pass once
cancelled entries dominate the calendar — and the dispatch loops are
inlined with locally bound hot names.  None of this changes observable
behaviour: event order, RNG draw order, and all statistics are
byte-identical to the straightforward implementation.

Every guard on a time is written so that NaN fails it (``not delay >=
0.0`` rather than ``delay < 0.0``): a NaN entry would break the heap
order, and the rewritten comparison costs nothing extra.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable

from repro import obs
from repro.exceptions import ValidationError

#: Sentinel placed in the callback slot of a dispatched entry so that a
#: late ``EventHandle.cancel`` on an already-executed event stays a true
#: no-op (and never corrupts the live-event accounting).
_EXECUTED: Any = object()


class EventHandle:
    """Handle to a scheduled event; allows cancellation."""

    __slots__ = ("_simulator", "_entry")

    def __init__(self, simulator: "Simulator", entry: list) -> None:
        self._simulator = simulator
        self._entry = entry

    @property
    def time(self) -> float:
        """Scheduled execution time."""
        return self._entry[0]

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled before dispatch."""
        return self._entry[2] is None

    def cancel(self) -> None:
        """Cancel the event (idempotent; no-op if already executed)."""
        entry = self._entry
        callback = entry[2]
        if callback is None or callback is _EXECUTED:
            return
        entry[2] = None
        entry[3] = ()
        self._simulator._note_cancel()


class Simulator:
    """The event calendar: schedules and dispatches simulation events.

    ``now`` (the current simulation time) is a plain attribute rather
    than a property: it is read on essentially every event, and the
    server/runtime layers read it directly.  Treat it as read-only —
    only the dispatch loops advance the clock.
    """

    __slots__ = (
        "now",
        "_sequence",
        "_calendar",
        "_executed_events",
        "_max_pending",
        "_cancelled_pending",
        "_dispatch_events",
        "_dispatch_seconds",
    )

    #: Lazy-deleted entries are compacted out of the calendar once at
    #: least this many are pending *and* they make up the majority of it.
    COMPACTION_THRESHOLD = 64

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulation time (read-only outside the engine).
        self.now = start_time
        self._sequence = 0
        self._calendar: list[list] = []
        self._executed_events = 0
        self._max_pending = 0
        self._cancelled_pending = 0
        self._dispatch_events = 0
        self._dispatch_seconds = 0.0

    @property
    def executed_events(self) -> int:
        """Number of events dispatched so far."""
        return self._executed_events

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) scheduled future events."""
        return len(self._calendar) - self._cancelled_pending

    @property
    def max_pending_events(self) -> int:
        """High-water mark of live events in the calendar."""
        return self._max_pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` from now."""
        if not delay >= 0.0:
            raise ValidationError(f"delay must be >= 0, got {delay}")
        calendar = self._calendar
        entry = [self.now + delay, self._sequence, callback, args]
        self._sequence += 1
        heappush(calendar, entry)
        live = len(calendar) - self._cancelled_pending
        if live > self._max_pending:
            self._max_pending = live
        return EventHandle(self, entry)

    def post(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` with no cancellation handle.

        Identical to :meth:`schedule` except that no :class:`EventHandle`
        is allocated.  Most events are fire-and-forget (arrivals, load
        requests, failure timers), so the hot paths use this variant and
        reserve :meth:`schedule` for events that may be cancelled.
        """
        if not delay >= 0.0:
            raise ValidationError(f"delay must be >= 0, got {delay}")
        calendar = self._calendar
        heappush(
            calendar, [self.now + delay, self._sequence, callback, args]
        )
        self._sequence += 1
        live = len(calendar) - self._cancelled_pending
        if live > self._max_pending:
            self._max_pending = live

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation time."""
        if not time >= self.now:
            raise ValidationError(
                f"cannot schedule into the past: {time} < now {self.now}"
            )
        calendar = self._calendar
        entry = [time, self._sequence, callback, args]
        self._sequence += 1
        heappush(calendar, entry)
        live = len(calendar) - self._cancelled_pending
        if live > self._max_pending:
            self._max_pending = live
        return EventHandle(self, entry)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping (called by EventHandle.cancel)
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Count a lazy deletion; compact once cancellations dominate."""
        cancelled = self._cancelled_pending + 1
        self._cancelled_pending = cancelled
        calendar = self._calendar
        if (
            cancelled >= self.COMPACTION_THRESHOLD
            and 2 * cancelled >= len(calendar)
        ):
            # In-place so dispatch loops holding a reference keep seeing
            # the same list object.
            calendar[:] = [e for e in calendar if e[2] is not None]
            heapify(calendar)
            self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the next event; returns False when the calendar is empty."""
        calendar = self._calendar
        while calendar:
            entry = heappop(calendar)
            callback = entry[2]
            if callback is None:
                self._cancelled_pending -= 1
                continue
            entry[2] = _EXECUTED
            self.now = entry[0]
            self._executed_events += 1
            callback(*entry[3])
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Dispatch all events with time <= ``end_time``; advance the clock.

        The clock ends exactly at ``end_time`` even if the calendar holds
        later events (they remain scheduled).
        """
        if not end_time >= self.now:
            raise ValidationError(
                f"end_time {end_time} lies before now {self.now}"
            )
        observing = obs.is_enabled()
        started_wall = perf_counter() if observing else 0.0
        calendar = self._calendar
        pop = heappop
        executed = 0
        try:
            while calendar:
                entry = calendar[0]
                if entry[0] > end_time:
                    break
                pop(calendar)
                callback = entry[2]
                if callback is None:
                    self._cancelled_pending -= 1
                    continue
                entry[2] = _EXECUTED
                self.now = entry[0]
                executed += 1
                callback(*entry[3])
        finally:
            self._executed_events += executed
        self.now = end_time
        if observing:
            self._flush_obs(executed, perf_counter() - started_wall)

    def run(self, max_events: int | None = None) -> None:
        """Dispatch events until the calendar drains or a cap is hit.

        ``max_events`` caps the events dispatched (0 dispatches none);
        a negative cap raises :class:`ValidationError`.
        """
        if max_events is None:
            limit = math.inf
        elif max_events >= 0:
            limit = max_events
        else:
            raise ValidationError(
                f"max_events must be >= 0, got {max_events}"
            )
        observing = obs.is_enabled()
        started_wall = perf_counter() if observing else 0.0
        calendar = self._calendar
        pop = heappop
        executed = 0
        try:
            while calendar and executed < limit:
                entry = pop(calendar)
                callback = entry[2]
                if callback is None:
                    self._cancelled_pending -= 1
                    continue
                entry[2] = _EXECUTED
                self.now = entry[0]
                executed += 1
                callback(*entry[3])
        finally:
            self._executed_events += executed
            if observing:
                self._flush_obs(executed, perf_counter() - started_wall)

    # ------------------------------------------------------------------
    # Batched observability flush (one call per dispatch loop, never
    # per event)
    # ------------------------------------------------------------------
    def _flush_obs(self, executed: int, wall_seconds: float) -> None:
        """Record the dispatch batch's metrics in one shot."""
        self._dispatch_events += executed
        self._dispatch_seconds += wall_seconds
        obs.count("sim.events_executed", executed)
        obs.set_max("sim.calendar.max_pending", self._max_pending)
        if self._dispatch_seconds > 0.0 and self._dispatch_events:
            obs.set_gauge(
                "sim.events_per_second",
                self._dispatch_events / self._dispatch_seconds,
            )
