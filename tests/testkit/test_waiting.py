"""Bounded-wait helpers."""

import pytest

from repro.testkit import Deadline, wait_until
from repro.testkit import waiting


class _ScriptedTime:
    """Stand-in for the ``time`` module with a scripted monotonic clock."""

    def __init__(self, times):
        self._times = iter(times)
        self._last = 0.0
        self.sleeps = []

    def monotonic(self):
        try:
            self._last = next(self._times)
        except StopIteration:
            pass
        return self._last

    def sleep(self, seconds):
        self.sleeps.append(seconds)


class TestWaitUntil:
    def test_returns_truthy_value(self):
        assert wait_until(lambda: 42, timeout=1.0) == 42

    def test_polls_until_condition_holds(self):
        state = {"calls": 0}

        def predicate():
            state["calls"] += 1
            return state["calls"] >= 3

        assert wait_until(predicate, timeout=2.0, interval=0.001)
        assert state["calls"] == 3

    def test_timeout_raises_with_message(self):
        with pytest.raises(TimeoutError, match="database row"):
            wait_until(lambda: False, timeout=0.05, interval=0.01,
                       message="database row")

    def test_final_check_at_deadline(self):
        deadline = Deadline(0.0)  # already expired
        assert deadline.expired
        assert wait_until(lambda: True, timeout=0.0)

    def test_never_sleeps_past_the_deadline(self, monkeypatch):
        # regression: the deadline reads "not yet expired", but by the
        # time the sleep length is computed the remaining budget is
        # exactly 0.0 — the old `remaining() or interval` then slept a
        # *full* interval past the deadline before re-checking
        fake = _ScriptedTime([
            0.0,    # Deadline(): expires at 1.0
            0.999,  # expired-check: still before the deadline
            1.0,    # remaining(): budget is exactly 0.0
            1.0,    # expired-check next iteration: expired
        ])
        monkeypatch.setattr(waiting, "time", fake)
        with pytest.raises(TimeoutError):
            wait_until(lambda: False, timeout=1.0, interval=0.5)
        assert fake.sleeps == [0.0]  # clamped, not a 0.5s oversleep


class TestDeadline:
    def test_remaining_counts_down(self):
        deadline = Deadline(60.0)
        assert 0.0 < deadline.remaining() <= 60.0
        assert not deadline.expired

    def test_zero_deadline_expired(self):
        assert Deadline(0.0).remaining() == 0.0
