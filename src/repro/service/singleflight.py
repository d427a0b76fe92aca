"""Single-flight request coalescing.

When N callers concurrently ask for the same key, exactly one of them
(the *leader*) executes the work; the other N-1 (*followers*) block on
the leader's completion and share its result. This is the load-shaping
primitive the serving layer puts in front of the generation pipeline:
a burst of byte-identical ``POST /v1/generate`` requests costs one
pipeline execution, not N.

Semantics (modeled on Go's ``golang.org/x/sync/singleflight``):

* a call is *in flight* from the moment its leader registers until the
  leader's function returns or raises;
* followers joining during that window share the outcome — including
  an exception, which is re-raised in every waiting caller;
* once the flight completes, the key is forgotten: a later call starts
  a fresh flight (replaying completed results is the artifact cache's
  and the result memo's job, not this module's).

``service.singleflight.leaders`` / ``.followers`` counters in
:data:`repro.obs.METRICS` make the coalescing observable.
"""

from __future__ import annotations

import threading
from typing import Callable, TypeVar

from ..obs import METRICS

_LEADERS = METRICS.counter("service.singleflight.leaders")
_FOLLOWERS = METRICS.counter("service.singleflight.followers")

_RESULT = TypeVar("_RESULT")


class _Flight:
    """One in-flight call: completion event plus shared outcome."""

    __slots__ = ("done", "result", "error", "followers")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: object = None
        self.error: BaseException | None = None
        self.followers = 0


class SingleFlight:
    """Coalesces concurrent calls per key onto one execution."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}

    def do(self, key: str, fn: Callable[[], _RESULT],
           timeout: float | None = None) -> tuple[_RESULT, bool]:
        """Run ``fn`` once per concurrent *key*; returns ``(result,
        is_leader)``.

        Whoever registers the flight first becomes the leader, calls
        ``fn`` and publishes its outcome. Followers wait up to
        *timeout* seconds (forever when ``None``) and then receive the
        shared result or re-raise the leader's exception. A follower
        whose wait times out raises :class:`TimeoutError` without
        disturbing the flight.
        """
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = _Flight()
            else:
                flight.followers += 1
        if not leader:
            _FOLLOWERS.inc()
            if not flight.done.wait(timeout):
                raise TimeoutError(
                    f"single-flight wait for {key!r} exceeded "
                    f"{timeout}s")
            if flight.error is not None:
                raise flight.error
            return flight.result, False  # type: ignore[return-value]
        _LEADERS.inc()
        try:
            flight.result = fn()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            # retire the key first, then wake the followers: a caller
            # arriving after the wake-up must start a fresh flight
            with self._lock:
                self._flights.pop(key, None)
            flight.done.set()
        return flight.result, True  # type: ignore[return-value]

    def waiting(self, key: str) -> int:
        """How many followers are blocked on *key* right now (0 when
        the key is not in flight) — used by tests to gate releases."""
        with self._lock:
            flight = self._flights.get(key)
            return flight.followers if flight is not None else 0
