"""Circuit breaker with half-open probing.

Wraps an unreliable dependency (a remote service, a flaky subsystem)
and fails fast once it keeps failing, instead of queueing doomed work
behind timeouts:

* **closed** — calls flow; ``failure_threshold`` *consecutive*
  failures trip the breaker;
* **open** — calls raise :class:`CircuitOpen` immediately (retriable,
  with a ``retry_after`` hint of the remaining cooldown); after
  ``reset_timeout`` seconds the next caller moves it to half-open;
* **half-open** — up to ``half_open_probes`` trial calls pass through;
  all succeeding closes the breaker, any failure re-opens it and the
  cooldown starts over.

Trips and probes are counted in :data:`repro.obs.METRICS`
(``breaker.trips`` / ``breaker.probes``). The clock is injectable for
deterministic tests.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..obs import METRICS

_TRIPS = METRICS.counter("breaker.trips")
_PROBES = METRICS.counter("breaker.probes")
_OPEN_REJECTIONS = METRICS.counter("breaker.open_rejections")

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


class CircuitOpen(Exception):
    """The breaker is open; carries how long until the next probe."""

    retriable = True
    code = "circuit-open"

    def __init__(self, name: str, retry_after: float):
        self.name = name
        self.retry_after = max(0.0, retry_after)
        super().__init__(f"circuit {name!r} is open "
                         f"(retry after {self.retry_after:.3f}s)")


class CircuitBreaker:
    """Thread-safe consecutive-failure breaker (see module docstring)."""

    def __init__(self, name: str = "default", *,
                 failure_threshold: int = 5,
                 reset_timeout: float = 1.0,
                 half_open_probes: int = 1,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_issued = 0
        self._probe_successes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    # -- the three transitions (callers hold self._lock) -----------------

    def _trip_locked(self) -> None:
        self._state = STATE_OPEN
        self._opened_at = self._clock()
        self._failures = 0
        _TRIPS.inc()

    def _close_locked(self) -> None:
        self._state = STATE_CLOSED
        self._failures = 0

    def _half_open_locked(self) -> None:
        self._state = STATE_HALF_OPEN
        self._probes_issued = 0
        self._probe_successes = 0

    # -- call protocol ---------------------------------------------------

    def allow(self) -> None:
        """Gate one call; raises :class:`CircuitOpen` when tripped."""
        with self._lock:
            if self._state == STATE_OPEN:
                elapsed = self._clock() - self._opened_at
                if elapsed < self.reset_timeout:
                    _OPEN_REJECTIONS.inc()
                    raise CircuitOpen(self.name,
                                      self.reset_timeout - elapsed)
                self._half_open_locked()
            if self._state == STATE_HALF_OPEN:
                if self._probes_issued >= self.half_open_probes:
                    _OPEN_REJECTIONS.inc()
                    raise CircuitOpen(self.name, self.reset_timeout)
                self._probes_issued += 1
                _PROBES.inc()

    def record_success(self) -> None:
        with self._lock:
            if self._state == STATE_HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_probes:
                    self._close_locked()
            else:
                self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == STATE_HALF_OPEN:
                self._trip_locked()
                return
            if self._state == STATE_CLOSED:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._trip_locked()

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.name!r}, state={self.state!r}, "
                f"threshold={self.failure_threshold})")
