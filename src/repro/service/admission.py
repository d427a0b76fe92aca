"""Admission control: bounded concurrency with pluggable backpressure.

The serving layer admits at most ``max_inflight`` requests into the
pipeline at once. What happens to request ``max_inflight + 1`` is the
*backpressure policy*:

``reject``
    fail immediately with :class:`AdmissionRejected` — the caller gets
    a retriable error and decides when to come back (HTTP 503 +
    ``Retry-After``);
``block``
    queue FIFO and wait for a slot, up to a deadline; a queue position
    that expires raises :class:`AdmissionTimeout`;
``shed-oldest``
    queue FIFO with a bounded depth; when the queue is full the
    *oldest* waiter is shed (:class:`AdmissionShed`) to make room for
    the newcomer — freshest-first service under sustained overload.

A per-client token bucket (:class:`RateLimiter`) sits in front of
admission so one chatty client cannot monopolize the slots.

All errors derive from :class:`AdmissionError` and carry a stable
``code`` string plus a ``retriable`` flag the HTTP layer maps onto
status codes and bodies.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager

from ..obs import METRICS

_ADMITTED = METRICS.counter("service.admitted")
_REJECTED = METRICS.counter("service.rejected")
_SHED = METRICS.counter("service.shed")
_TIMEOUTS = METRICS.counter("service.admission_timeouts")
_RATE_LIMITED = METRICS.counter("service.rate_limited")
_INFLIGHT = METRICS.gauge("service.inflight")
_QUEUED = METRICS.gauge("service.queued")

POLICY_REJECT = "reject"
POLICY_BLOCK = "block"
POLICY_SHED = "shed-oldest"
POLICIES = (POLICY_REJECT, POLICY_BLOCK, POLICY_SHED)


class AdmissionError(Exception):
    """Base of every admission-control failure.

    ``code`` is a stable machine-readable identifier; ``retriable``
    tells the caller whether backing off and retrying can succeed.
    """

    code = "admission"
    retriable = True


class AdmissionRejected(AdmissionError):
    """No free slot and the policy does not queue."""

    code = "rejected"


class AdmissionTimeout(AdmissionError):
    """Queued under ``block`` but no slot freed before the deadline."""

    code = "deadline-exceeded"


class AdmissionShed(AdmissionError):
    """Evicted from the queue by a newer request (``shed-oldest``)."""

    code = "shed"


class RateLimited(AdmissionError):
    """The per-client token bucket is empty."""

    code = "rate-limited"


class ServiceDraining(AdmissionError):
    """The service is shutting down and admits no new work."""

    code = "draining"


class _Waiter:
    """One queued request: its wake-up event and final disposition."""

    __slots__ = ("event", "state")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.state = "waiting"  # -> "admitted" | "shed"


class AdmissionController:
    """Bounded in-flight slots with a policy-shaped waiting queue."""

    def __init__(self, max_inflight: int = 8, *,
                 policy: str = POLICY_REJECT,
                 block_deadline: float = 10.0,
                 max_queue: int | None = None):
        if policy not in POLICIES:
            raise ValueError(f"unknown backpressure policy {policy!r}; "
                             f"expected one of {', '.join(POLICIES)}")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self.policy = policy
        self.block_deadline = block_deadline
        #: Queue bound for ``shed-oldest`` (``block`` queues without a
        #: depth bound — its deadline bounds the wait instead).
        self.max_queue = max_queue if max_queue is not None \
            else max_inflight
        self._lock = threading.Lock()
        self._inflight = 0
        self._queue: deque[_Waiter] = deque()

    # -- introspection ---------------------------------------------------

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def queued(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- acquire/release -------------------------------------------------

    def acquire(self, deadline: float | None = None) -> None:
        """Take a slot, queuing/failing per the policy.

        *deadline* (seconds) overrides the controller's
        ``block_deadline`` for this call.
        """
        with self._lock:
            if self._inflight < self.max_inflight and not self._queue:
                self._admit_locked()
                return
            if self.policy == POLICY_REJECT:
                _REJECTED.inc()
                raise AdmissionRejected(
                    f"at capacity ({self.max_inflight} in flight)")
            if self.policy == POLICY_SHED and \
                    len(self._queue) >= self.max_queue:
                oldest = self._queue.popleft()
                oldest.state = "shed"
                oldest.event.set()
                _SHED.inc()
                _QUEUED.dec()
            waiter = _Waiter()
            self._queue.append(waiter)
            _QUEUED.inc()
        timeout = deadline if deadline is not None else self.block_deadline
        waiter.event.wait(timeout)
        with self._lock:
            # dispositions change only under this lock, so "waiting"
            # here means the deadline truly expired while still queued
            # (release() admitting us after wait() gave up lands in the
            # "admitted" branch instead)
            if waiter.state == "admitted":
                return
            if waiter.state == "shed":
                raise AdmissionShed(
                    "request shed from the queue by newer work")
            self._queue.remove(waiter)
            _QUEUED.dec()
            _TIMEOUTS.inc()
        raise AdmissionTimeout(f"no slot freed within {timeout}s")

    def release(self) -> None:
        """Free a slot and hand it to the head of the queue, FIFO."""
        with self._lock:
            self._inflight -= 1
            _INFLIGHT.dec()
            while self._queue and self._inflight < self.max_inflight:
                waiter = self._queue.popleft()
                _QUEUED.dec()
                waiter.state = "admitted"
                self._admit_locked()
                waiter.event.set()

    def _admit_locked(self) -> None:
        self._inflight += 1
        _ADMITTED.inc()
        _INFLIGHT.inc()

    @contextmanager
    def slot(self, deadline: float | None = None):
        """``with controller.slot(): ...`` — acquire/release pairing."""
        self.acquire(deadline)
        try:
            yield
        finally:
            self.release()


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "stamp", "clock")

    def __init__(self, rate: float, burst: float,
                 clock=time.monotonic):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.clock = clock
        self.stamp = clock()

    def try_consume(self) -> bool:
        """Take one token if the bucket holds one."""
        now = self.clock()
        self.tokens = min(self.burst,
                          self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens < 1.0:
            return False
        self.tokens -= 1.0
        return True

    @property
    def full(self) -> bool:
        return self.tokens >= self.burst


class RateLimiter:
    """Per-client token buckets; ``rate <= 0`` disables limiting."""

    #: Idle (full) buckets are pruned past this many tracked clients.
    MAX_CLIENTS = 10_000

    def __init__(self, rate: float = 0.0, burst: float | None = None,
                 clock=time.monotonic):
        self.rate = rate
        self.burst = burst if burst is not None else max(1.0, rate)
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.rate > 0

    def check(self, client: str) -> None:
        """Charge one token to *client*; raises :class:`RateLimited`."""
        if not self.enabled:
            return
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, self._clock)
                self._buckets[client] = bucket
                if len(self._buckets) > self.MAX_CLIENTS:
                    self._prune_locked()
            self._buckets.move_to_end(client)
            if not bucket.try_consume():
                _RATE_LIMITED.inc()
                raise RateLimited(
                    f"client {client!r} exceeded {self.rate:g} "
                    f"requests/s (burst {self.burst:g})")

    def _prune_locked(self) -> None:
        # full buckets belong to idle clients; forgetting them is free
        for name in [name for name, bucket in self._buckets.items()
                     if bucket.full]:
            del self._buckets[name]
