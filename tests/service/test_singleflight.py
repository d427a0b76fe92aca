"""Single-flight coalescing semantics (repro.service.singleflight)."""

import threading

import pytest

from repro.obs import METRICS
from repro.service import SingleFlight
from repro.testkit import wait_until

#: Counts every caller that joined a flight as a follower.
FOLLOWERS = METRICS.counter("service.singleflight.followers")


def _run_concurrently(count, fn):
    """Start *count* threads running fn(index); returns them started."""
    threads = [threading.Thread(target=fn, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    return threads


class TestSingleFlight:
    def test_sequential_calls_each_execute(self):
        flight = SingleFlight()
        calls = []
        for i in range(3):
            result, leader = flight.do("k", lambda i=i: calls.append(i) or i)
            assert leader
            assert result == i
        assert calls == [0, 1, 2]

    def test_concurrent_same_key_executes_once(self):
        flight = SingleFlight()
        executions = []
        release = threading.Event()
        results = {}

        def work():
            executions.append(threading.get_ident())
            release.wait(5)
            return "shared"

        def call(i):
            results[i] = flight.do("k", work)

        start = FOLLOWERS.value
        threads = _run_concurrently(6, call)
        # wait until all five followers are parked on the leader
        wait_until(lambda: FOLLOWERS.value - start >= 5, timeout=5.0,
                   message="followers never parked on the leader")
        assert FOLLOWERS.value - start == 5
        release.set()
        for thread in threads:
            thread.join(5)
        assert len(executions) == 1
        assert len(results) == 6
        values = [value for value, _ in results.values()]
        assert values == ["shared"] * 6
        leaders = [leader for _, leader in results.values()]
        assert leaders.count(True) == 1
        assert leaders.count(False) == 5

    def test_distinct_keys_run_independently(self):
        flight = SingleFlight()
        gate = threading.Event()
        seen = []

        def work(key):
            seen.append(key)
            gate.wait(5)
            return key

        results = {}

        def call(i):
            key = f"key-{i}"
            results[i] = flight.do(key, lambda key=key: work(key))

        threads = _run_concurrently(3, call)
        wait_until(lambda: len(seen) >= 3, timeout=5.0,
                   message="three independent flights never started")
        assert len(seen) == 3
        gate.set()
        for thread in threads:
            thread.join(5)
        assert sorted(seen) == ["key-0", "key-1", "key-2"]

    def test_leader_exception_propagates_to_followers(self):
        flight = SingleFlight()
        release = threading.Event()
        outcomes = {}

        def work():
            release.wait(5)
            raise RuntimeError("pipeline exploded")

        def call(i):
            try:
                flight.do("k", work)
            except RuntimeError as exc:
                outcomes[i] = str(exc)
            else:  # pragma: no cover - would be a bug
                outcomes[i] = "no error"

        start = FOLLOWERS.value
        threads = _run_concurrently(4, call)
        wait_until(lambda: FOLLOWERS.value - start >= 3, timeout=5.0,
                   message="followers never parked on the leader")
        release.set()
        for thread in threads:
            thread.join(5)
        assert list(outcomes.values()) == ["pipeline exploded"] * 4
        # the failed flight is retired: the next call starts fresh
        result, leader = flight.do("k", lambda: "recovered")
        assert (result, leader) == ("recovered", True)

    def test_follower_timeout_raises_without_breaking_flight(self):
        flight = SingleFlight()
        release = threading.Event()
        late = {}

        started = threading.Event()

        def leader_call(i):
            late["leader"] = flight.do(
                "k", lambda: (started.set(), release.wait(5), "done")[2])

        leader_thread = threading.Thread(target=leader_call, args=(0,))
        leader_thread.start()
        wait_until(started.is_set, timeout=5.0,
                   message="leader flight never started")
        with pytest.raises(TimeoutError):
            flight.do("k", lambda: "unused", timeout=0.05)
        release.set()
        leader_thread.join(5)
        assert late["leader"] == ("done", True)
