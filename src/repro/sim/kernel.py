"""The discrete-event kernel: a totally ordered event queue and clock.

Everything above this module (machines, jobs, scenarios) is policy;
the kernel is the one mechanism: events execute in a **total order**
``(time, priority, ordinal)`` where the ordinal is the insertion
sequence number. There is no wall clock, no :mod:`random`, and no
iteration over unordered containers — two runs over the same schedule
of events are *identical*, not merely equivalent, which is what lets
:mod:`repro.sim` promise byte-identical reports for a seed.

Time is integer **ticks** (:data:`TICKS_PER_UNIT` per model time unit).
Integer time makes every comparison exact: no accumulated float error
can reorder events between platforms, and scaling a duration by a
slowdown factor is integer arithmetic (``ceil(d * num / den)``). The
reporting layer converts ticks back to units only at render time.

The heap holds ``(time, priority, ordinal, event)`` tuples. The
ordinal is unique, so tuple comparison settles every order on the
three integers in C and never reaches the :class:`Event`; an
``Event`` keeps its key and ``<`` for callers that order events
themselves.
"""

from __future__ import annotations

import heapq
from typing import Callable

#: Granularity of the integer clock: 100 ticks = 1.0 model time units,
#: so two-decimal durations (the service-time model's resolution) are
#: exact.
TICKS_PER_UNIT = 100


class SimulationError(RuntimeError):
    """The simulation reached an inconsistent state."""


class SchedulingInPastError(SimulationError):
    """An event was scheduled before the current simulation time."""


def ticks(units: float) -> int:
    """Model time units -> integer ticks (round-half-up at tick
    resolution, so ``ticks(0.015)`` is stable across platforms)."""
    return round(units * TICKS_PER_UNIT)


def units(tick_count: int) -> float:
    """Integer ticks -> model time units (for rendering only)."""
    return tick_count / TICKS_PER_UNIT


def scale_ticks(duration: int, numerator: int, denominator: int) -> int:
    """``ceil(duration * numerator / denominator)`` in exact integer
    arithmetic — how slowdown factors stretch service times."""
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if numerator < 1 or denominator < 1:
        raise ValueError("scale factor must be positive")
    return -(-duration * numerator // denominator)


class Event:
    """One scheduled action; ordered by ``(time, priority, ordinal)``."""

    __slots__ = ("time", "priority", "ordinal", "action", "label")

    def __init__(self, time: int, priority: int, ordinal: int,
                 action: Callable[[], None], label: str):
        self.time = time
        self.priority = priority
        self.ordinal = ordinal
        self.action = action
        self.label = label

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.time, self.priority, self.ordinal)

    def __lt__(self, other: "Event") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return (f"Event(t={self.time}, prio={self.priority}, "
                f"#{self.ordinal}, {self.label!r})")


class Simulator:
    """The event loop: schedule actions, run them in total order.

    *trace_events* keeps a log of ``(time, priority, ordinal, label)``
    tuples for every executed event — the property-test hook for the
    monotonicity invariant (and a debugging aid); off by default so
    large runs allocate nothing per event beyond the heap entry.
    """

    def __init__(self, *, trace_events: bool = False):
        self.now = 0
        self._heap: list[tuple[int, int, int, Event]] = []
        self._ordinal = 0
        self.processed = 0
        self.event_log: list[tuple[int, int, int, str]] | None = \
            [] if trace_events else None

    # -- scheduling --------------------------------------------------------

    def schedule_at(self, time: int, action: Callable[[], None], *,
                    priority: int = 0, label: str = "") -> Event:
        """Schedule *action* at absolute tick *time*."""
        if time < self.now:
            raise SchedulingInPastError(
                f"cannot schedule {label or 'event'!r} at t={time} "
                f"(now t={self.now})")
        ordinal = self._ordinal
        event = Event(time, priority, ordinal, action, label)
        self._ordinal = ordinal + 1
        heapq.heappush(self._heap, (time, priority, ordinal, event))
        return event

    def schedule(self, delay: int, action: Callable[[], None], *,
                 priority: int = 0, label: str = "") -> Event:
        """Schedule *action* after *delay* ticks."""
        if delay < 0:
            raise SchedulingInPastError(
                f"negative delay {delay} for {label or 'event'!r}")
        return self.schedule_at(self.now + delay, action,
                                priority=priority, label=label)

    # -- execution ---------------------------------------------------------

    def run(self, *, until: int | None = None,
            max_events: int | None = None) -> int:
        """Drain the queue in total order; returns events processed.

        *until* stops the clock after every event at that tick has run
        (events beyond it stay queued); *max_events* bounds the run —
        exceeding it raises (a runaway model is a bug, not a result).
        """
        executed = 0
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                break
            time, priority, ordinal, event = heapq.heappop(heap)
            if time < self.now:  # pragma: no cover - heap invariant
                raise SimulationError(
                    f"event {event!r} travels back in time "
                    f"(now t={self.now})")
            self.now = time
            if self.event_log is not None:
                self.event_log.append((time, priority, ordinal,
                                       event.label))
            event.action()
            executed += 1
            self.processed += 1
            if max_events is not None and executed > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    f"the model is likely non-terminating")
        return executed

    @property
    def pending(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:
        return (f"Simulator(t={self.now}, pending={self.pending}, "
                f"processed={self.processed})")
