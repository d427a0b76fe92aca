"""Retry with exponential backoff, deterministic jitter and deadlines.

:class:`RetryPolicy` is a frozen description of a retry schedule —
attempt count, exponential backoff bounds, jitter fraction and an
optional seed that makes the jitter stream deterministic (the testkit
and the chaos oracle rely on that: same seed, same delays). An
``overall_deadline`` is a budget for the whole operation, enforced by
:func:`retry_call` *before* each sleep: if the next backoff would
overrun the budget the call gives up immediately with
:class:`DeadlineExceeded` instead of sleeping past it.

:func:`retry_call` classifies failures with *retry_on* (an exception
tuple or a predicate; the default retries exceptions whose
``retriable`` attribute is true — the convention shared by
:mod:`repro.service` and :mod:`repro.faults`) and honours a
``retry_after`` hint on the exception (HTTP ``Retry-After``) as a lower
bound on the next delay. Attempts and retries land in the
:data:`repro.obs.METRICS` registry and every backoff is folded into the
ambient trace as a ``retry:<describe>`` span.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from ..obs import METRICS, record_span

_ATTEMPTS = METRICS.counter("resilience.attempts")
_RETRIES = METRICS.counter("resilience.retries")
_GIVEUPS = METRICS.counter("resilience.giveups")

_T = TypeVar("_T")


class RetryError(Exception):
    """Retries exhausted; chains to the last underlying failure.

    ``retriable`` is ``True``: every attempt failed with a *retriable*
    error (that is the only way in here), so a caller with a fresh
    budget may legitimately try again later.
    """

    retriable = True

    def __init__(self, message: str, *, attempts: int,
                 last: BaseException | None = None):
        self.attempts = attempts
        self.last = last
        super().__init__(message)


class DeadlineExceeded(RetryError):
    """The overall retry budget ran out before the attempts did."""


def _default_classifier(error: BaseException) -> bool:
    return bool(getattr(error, "retriable", False))


@dataclass(frozen=True)
class RetryPolicy:
    """A frozen retry schedule (see module docstring)."""

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    #: Fraction of each delay randomized: ``delay * (1 ± jitter)``.
    jitter: float = 0.25
    #: Seed for the jitter stream; ``None`` draws from the process RNG.
    seed: int | None = None
    overall_deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def rng(self) -> random.Random:
        return random.Random(self.seed) \
            if self.seed is not None else random.Random()

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff before retry *attempt* (1-based count of failures)."""
        raw = min(self.max_delay,
                  self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter and rng is not None:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)


def retry_call(fn: Callable[[], _T], *,
               policy: RetryPolicy | None = None,
               retry_on: tuple | Callable[[BaseException], bool] | None = None,
               describe: str = "operation",
               on_retry: Callable[[int, BaseException, float], None] | None
               = None,
               sleep: Callable[[float], None] = time.sleep,
               clock: Callable[[], float] = time.monotonic) -> _T:
    """Call *fn* until it succeeds, the policy's attempts run out
    (:class:`RetryError`) or its overall deadline would be overrun
    (:class:`DeadlineExceeded`).

    *retry_on* decides which failures are worth retrying: an exception
    tuple, a predicate, or ``None`` for the ``retriable``-attribute
    convention. Anything else propagates unchanged on the first raise.
    """
    policy = policy or RetryPolicy()
    if retry_on is None:
        classify = _default_classifier
    elif callable(retry_on) and not isinstance(retry_on, tuple):
        classify = retry_on
    else:
        classify = lambda error: isinstance(error, retry_on)  # noqa: E731
    rng = policy.rng()
    started = clock()
    for attempt in range(1, policy.max_attempts + 1):
        _ATTEMPTS.inc()
        try:
            return fn()
        except Exception as error:
            if not classify(error):
                raise
            if attempt >= policy.max_attempts:
                _GIVEUPS.inc()
                raise RetryError(
                    f"{describe} failed after {attempt} attempt(s): "
                    f"{type(error).__name__}: {error}",
                    attempts=attempt, last=error) from error
            delay = policy.delay(attempt, rng)
            hinted = getattr(error, "retry_after", None)
            if hinted is not None:
                delay = max(delay, float(hinted))
            if policy.overall_deadline is not None and \
                    (clock() - started) + delay > policy.overall_deadline:
                _GIVEUPS.inc()
                raise DeadlineExceeded(
                    f"{describe} gave up after {attempt} attempt(s): "
                    f"next backoff ({delay:.3f}s) would overrun the "
                    f"{policy.overall_deadline:g}s deadline",
                    attempts=attempt, last=error) from error
            _RETRIES.inc()
            record_span(f"retry:{describe}", delay, attempt=attempt,
                        error=type(error).__name__)
            if on_retry is not None:
                on_retry(attempt, error, delay)
            sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
