"""Bounded-wait primitives for concurrent tests.

Fixed ``time.sleep`` calls make a test either slow (sleep too long) or
flaky (sleep too short); every wait in the test suite goes through
these helpers instead, which poll until a condition holds and fail
loudly — with the caller's description — when a deadline expires.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

_T = TypeVar("_T")

#: Default ceiling for a single wait. Generous enough for a loaded CI
#: runner; a healthy condition is typically observed in well under 50ms.
DEFAULT_TIMEOUT = 10.0
DEFAULT_INTERVAL = 0.005


class Deadline:
    """A fixed point in (monotonic) time that waits can share.

    *clock* defaults to ``time.monotonic``; tests inject a scripted
    clock to drive waits without real elapsed time.
    """

    def __init__(self, seconds: float = DEFAULT_TIMEOUT, *,
                 clock: Callable[[], float] | None = None):
        self.seconds = seconds
        self.clock = clock or time.monotonic
        self._expires = self.clock() + seconds

    @property
    def expired(self) -> bool:
        return self.clock() >= self._expires

    def remaining(self) -> float:
        return max(0.0, self._expires - self.clock())


def wait_until(predicate: Callable[[], _T], *,
               timeout: float = DEFAULT_TIMEOUT,
               interval: float = DEFAULT_INTERVAL,
               message: str = "",
               deadline: Deadline | None = None,
               clock: Callable[[], float] | None = None,
               sleep: Callable[[float], None] | None = None) -> _T:
    """Poll *predicate* until it returns a truthy value, and return it.

    Raises :class:`TimeoutError` (carrying *message* and the timeout)
    if the deadline passes first. The predicate is always evaluated at
    least once and once more right at the deadline, so a condition that
    becomes true exactly at the boundary is still observed.

    Pass a shared *deadline* so several consecutive waits draw down one
    budget (a worker's port file *and* its health probe share a single
    startup timeout). *clock*/*sleep* are injectable for scripted-clock
    tests; when a *deadline* is given its clock wins.
    """
    if deadline is None:
        deadline = Deadline(timeout, clock=clock)
    do_sleep = sleep or time.sleep
    while True:
        value = predicate()
        if value:
            return value
        if deadline.expired:
            value = predicate()  # final check after the deadline
            if value:
                return value
            what = message or getattr(predicate, "__name__", "condition")
            raise TimeoutError(
                f"timed out after {deadline.seconds:.1f}s waiting for {what}")
        # clamp to the remaining budget: the old `remaining() or
        # interval` slept a *full* interval past an exactly-expired
        # deadline before re-checking; sleep(0) re-checks promptly
        do_sleep(min(interval, deadline.remaining()))
