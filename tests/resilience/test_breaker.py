"""Circuit breaker state machine under a fake clock."""

import pytest

from repro.obs import METRICS
from repro.resilience import (CircuitBreaker, CircuitOpen, STATE_CLOSED,
                              STATE_HALF_OPEN, STATE_OPEN)


@pytest.fixture(autouse=True)
def _reset_metrics():
    METRICS.reset()


class _Clock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


@pytest.fixture()
def clock():
    return _Clock()


def _breaker(clock, **kwargs):
    kwargs.setdefault("failure_threshold", 3)
    kwargs.setdefault("reset_timeout", 5.0)
    return CircuitBreaker("test", clock=clock, **kwargs)


def _fail(breaker, times=1):
    for _ in range(times):
        breaker.allow()
        breaker.record_failure()


class TestTripping:
    def test_consecutive_failures_trip(self, clock):
        breaker = _breaker(clock)
        _fail(breaker, 2)
        assert breaker.state == STATE_CLOSED
        _fail(breaker)
        assert breaker.state == STATE_OPEN
        assert METRICS.snapshot().get("breaker.trips") == 1

    def test_success_resets_the_failure_streak(self, clock):
        breaker = _breaker(clock)
        _fail(breaker, 2)
        breaker.allow()
        breaker.record_success()
        _fail(breaker, 2)
        assert breaker.state == STATE_CLOSED

    def test_open_rejects_with_cooldown_hint(self, clock):
        breaker = _breaker(clock)
        _fail(breaker, 3)
        clock.advance(1.5)
        with pytest.raises(CircuitOpen) as info:
            breaker.allow()
        assert info.value.retriable
        assert info.value.retry_after == pytest.approx(3.5)
        assert METRICS.snapshot().get("breaker.open_rejections") == 1


class TestHalfOpen:
    def test_probe_success_closes(self, clock):
        breaker = _breaker(clock)
        _fail(breaker, 3)
        clock.advance(5.0)
        breaker.allow()  # the probe passes through
        assert breaker.state == STATE_HALF_OPEN
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert METRICS.snapshot().get("breaker.probes") == 1

    def test_probe_failure_reopens(self, clock):
        breaker = _breaker(clock)
        _fail(breaker, 3)
        clock.advance(5.0)
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        # the cooldown restarted: still rejecting shortly after
        clock.advance(1.0)
        with pytest.raises(CircuitOpen):
            breaker.allow()

    def test_probe_quota_is_bounded(self, clock):
        breaker = _breaker(clock, half_open_probes=2)
        _fail(breaker, 3)
        clock.advance(5.0)
        breaker.allow()
        breaker.allow()
        with pytest.raises(CircuitOpen):
            breaker.allow()  # third concurrent probe exceeds the quota
        breaker.record_success()
        assert breaker.state == STATE_HALF_OPEN  # one success of two
        breaker.record_success()
        assert breaker.state == STATE_CLOSED


class TestValidation:
    def test_bad_threshold_rejected(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0, clock=clock)

    def test_bad_probe_count_rejected(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0, clock=clock)
