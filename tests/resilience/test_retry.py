"""Retry policy: backoff schedule, deadlines, classification, metrics."""

import pytest

from repro.obs import METRICS
from repro.resilience import (DeadlineExceeded, RetryError, RetryPolicy,
                              retry_call)


@pytest.fixture(autouse=True)
def _reset_metrics():
    METRICS.reset()


class _Retriable(Exception):
    retriable = True


class _Hinted(Exception):
    retriable = True

    def __init__(self, retry_after):
        self.retry_after = retry_after
        super().__init__(f"retry after {retry_after}")


class _FakeClock:
    """Monotonic clock advanced by the recorded sleeps."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds

    def __call__(self):
        return self.now


def _failing(times, error=None):
    calls = {"n": 0}

    def fn():
        calls["n"] += 1
        if calls["n"] <= times:
            raise error or _Retriable(f"failure {calls['n']}")
        return calls["n"]

    return fn


class TestSchedule:
    def test_succeeds_after_retries(self):
        clock = _FakeClock()
        result = retry_call(_failing(2), policy=RetryPolicy(seed=1),
                            sleep=clock.sleep, clock=clock)
        assert result == 3
        assert len(clock.sleeps) == 2

    def test_seeded_jitter_is_deterministic(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.25,
                             seed=42)
        runs = []
        for _ in range(2):
            clock = _FakeClock()
            retry_call(_failing(4), policy=policy,
                       sleep=clock.sleep, clock=clock)
            runs.append(clock.sleeps)
        assert runs[0] == runs[1]
        # jittered, so not the bare exponential sequence
        assert runs[0] != [0.1, 0.2, 0.4, 0.8]

    def test_backoff_grows_and_caps_without_jitter(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, max_delay=0.5,
                             multiplier=2.0, jitter=0.0)
        clock = _FakeClock()
        retry_call(_failing(5), policy=policy,
                   sleep=clock.sleep, clock=clock)
        assert clock.sleeps == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_retry_after_hint_is_a_lower_bound(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0)
        clock = _FakeClock()
        retry_call(_failing(1, _Hinted(0.75)), policy=policy,
                   sleep=clock.sleep, clock=clock)
        assert clock.sleeps == [0.75]


class TestExhaustionAndDeadlines:
    def test_exhaustion_raises_retry_error(self):
        clock = _FakeClock()
        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        with pytest.raises(RetryError) as info:
            retry_call(_failing(99), policy=policy,
                       sleep=clock.sleep, clock=clock)
        assert info.value.attempts == 3
        assert info.value.retriable
        assert isinstance(info.value.last, _Retriable)

    def test_overall_deadline_refuses_to_oversleep(self):
        clock = _FakeClock()
        policy = RetryPolicy(max_attempts=10, base_delay=0.4, jitter=0.0,
                             multiplier=1.0, overall_deadline=1.0)
        with pytest.raises(DeadlineExceeded) as info:
            retry_call(_failing(99), policy=policy,
                       sleep=clock.sleep, clock=clock)
        # two 0.4s backoffs fit in the 1.0s budget; the third would
        # overrun, so the call gives up instead of sleeping past it
        assert clock.sleeps == pytest.approx([0.4, 0.4])
        assert clock.now <= policy.overall_deadline
        assert info.value.attempts == 3


class TestClassification:
    def test_non_retriable_propagates_immediately(self):
        clock = _FakeClock()
        with pytest.raises(ValueError):
            retry_call(_failing(2, ValueError("permanent")),
                       sleep=clock.sleep, clock=clock)
        assert clock.sleeps == []

    def test_retry_on_exception_tuple(self):
        clock = _FakeClock()
        policy = RetryPolicy(max_attempts=3, jitter=0.0, base_delay=0.01)
        result = retry_call(_failing(1, KeyError("transient")),
                            policy=policy, retry_on=(KeyError,),
                            sleep=clock.sleep, clock=clock)
        assert result == 2

    def test_retry_on_predicate(self):
        clock = _FakeClock()
        policy = RetryPolicy(max_attempts=3, jitter=0.0, base_delay=0.01)
        result = retry_call(
            _failing(1, RuntimeError("flaky")), policy=policy,
            retry_on=lambda error: "flaky" in str(error),
            sleep=clock.sleep, clock=clock)
        assert result == 2


class TestObservability:
    def test_metrics_and_on_retry_callback(self):
        clock = _FakeClock()
        seen = []
        retry_call(_failing(2), policy=RetryPolicy(seed=0),
                   on_retry=lambda attempt, error, delay:
                   seen.append((attempt, type(error).__name__)),
                   sleep=clock.sleep, clock=clock)
        assert seen == [(1, "_Retriable"), (2, "_Retriable")]
        snap = METRICS.snapshot()
        assert snap.get("resilience.attempts") == 3
        assert snap.get("resilience.retries") == 2
        assert snap.get("resilience.giveups", 0) == 0

    def test_giveup_counted(self):
        clock = _FakeClock()
        with pytest.raises(RetryError):
            retry_call(_failing(99), policy=RetryPolicy(max_attempts=2,
                                                        jitter=0.0),
                       sleep=clock.sleep, clock=clock)
        assert METRICS.snapshot().get("resilience.giveups") == 1


class TestPolicyValidation:
    def test_bad_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_bad_jitter_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
