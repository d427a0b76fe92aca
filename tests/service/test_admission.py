"""Admission-control policies and the per-client rate limiter."""

import threading
import time

import pytest

from repro.obs import METRICS, snapshot_delta
from repro.service import (AdmissionController, AdmissionRejected,
                           AdmissionShed, AdmissionTimeout, POLICY_BLOCK,
                           POLICY_REJECT, POLICY_SHED, RateLimited,
                           RateLimiter, TokenBucket)
from repro.testkit import wait_until


class TestRejectPolicy:
    def test_admits_up_to_capacity(self):
        ctrl = AdmissionController(2, policy=POLICY_REJECT)
        ctrl.acquire()
        ctrl.acquire()
        assert ctrl.inflight == 2
        with pytest.raises(AdmissionRejected):
            ctrl.acquire()
        ctrl.release()
        ctrl.acquire()  # freed slot is reusable
        assert ctrl.inflight == 2
        ctrl.release()
        ctrl.release()
        assert ctrl.inflight == 0

    def test_rejection_is_immediate(self):
        ctrl = AdmissionController(1, policy=POLICY_REJECT)
        ctrl.acquire()
        started = time.perf_counter()
        with pytest.raises(AdmissionRejected):
            ctrl.acquire()
        assert time.perf_counter() - started < 0.1

    def test_rejected_error_is_retriable(self):
        ctrl = AdmissionController(1, policy=POLICY_REJECT)
        ctrl.acquire()
        try:
            ctrl.acquire()
        except AdmissionRejected as exc:
            assert exc.retriable
            assert exc.code == "rejected"


class TestBlockPolicy:
    def test_blocks_until_slot_frees(self):
        ctrl = AdmissionController(1, policy=POLICY_BLOCK,
                                   block_deadline=5.0)
        ctrl.acquire()
        admitted = threading.Event()

        def blocked():
            ctrl.acquire()
            admitted.set()
            ctrl.release()

        thread = threading.Thread(target=blocked)
        thread.start()
        wait_until(lambda: ctrl.queued, timeout=5.0,
                   message="waiter never queued")
        assert not admitted.is_set()
        ctrl.release()
        wait_until(admitted.is_set, timeout=5.0,
                   message="blocked waiter never admitted")
        thread.join(5)
        assert ctrl.inflight == 0

    def test_deadline_expiry_raises_timeout(self):
        ctrl = AdmissionController(1, policy=POLICY_BLOCK,
                                   block_deadline=0.1)
        ctrl.acquire()
        started = time.perf_counter()
        with pytest.raises(AdmissionTimeout):
            ctrl.acquire()
        waited = time.perf_counter() - started
        assert 0.08 <= waited < 2.0
        assert ctrl.queued == 0  # the expired waiter withdrew

    def test_deadline_expiry_is_retriable_and_counted(self):
        # a blocked-then-timed-out caller must get a *retriable*
        # rejection (it can come back later) and land in the
        # service.admission_timeouts counter
        ctrl = AdmissionController(1, policy=POLICY_BLOCK,
                                   block_deadline=0.05)
        ctrl.acquire()
        before = METRICS.snapshot()
        with pytest.raises(AdmissionTimeout) as info:
            ctrl.acquire()
        assert info.value.retriable
        assert info.value.code == "deadline-exceeded"
        delta = snapshot_delta(before, METRICS.snapshot())
        assert delta["service.admission_timeouts"] == 1

    def test_per_call_deadline_overrides_default(self):
        ctrl = AdmissionController(1, policy=POLICY_BLOCK,
                                   block_deadline=30.0)
        ctrl.acquire()
        started = time.perf_counter()
        with pytest.raises(AdmissionTimeout):
            ctrl.acquire(deadline=0.05)
        assert time.perf_counter() - started < 2.0

    def test_fifo_handoff(self):
        ctrl = AdmissionController(1, policy=POLICY_BLOCK,
                                   block_deadline=5.0)
        ctrl.acquire()
        order = []
        started = []

        def waiter(i):
            started.append(i)
            ctrl.acquire()
            order.append(i)
            ctrl.release()

        threads = []
        for i in range(3):
            thread = threading.Thread(target=waiter, args=(i,))
            threads.append(thread)
            thread.start()
            # serialize queue entry so FIFO order is observable
            wait_until(lambda: ctrl.queued >= i + 1, timeout=5.0,
                       message=f"waiter {i} never queued")
        ctrl.release()
        for thread in threads:
            thread.join(5)
        assert order == [0, 1, 2]


class TestShedOldestPolicy:
    def test_oldest_waiter_is_shed_for_newcomer(self):
        ctrl = AdmissionController(1, policy=POLICY_SHED, max_queue=1,
                                   block_deadline=5.0)
        ctrl.acquire()
        outcomes = {}

        def waiter(i):
            try:
                ctrl.acquire()
            except AdmissionShed:
                outcomes[i] = "shed"
            else:
                outcomes[i] = "admitted"
                ctrl.release()

        first = threading.Thread(target=waiter, args=(0,))
        first.start()
        wait_until(lambda: ctrl.queued >= 1, timeout=5.0,
                   message="first waiter never queued")
        second = threading.Thread(target=waiter, args=(1,))
        second.start()
        first.join(5)  # shed immediately by the newcomer
        assert outcomes == {0: "shed"}
        ctrl.release()
        second.join(5)
        assert outcomes == {0: "shed", 1: "admitted"}

    def test_shed_error_metadata(self):
        assert AdmissionShed.code == "shed"
        assert AdmissionShed.retriable


class TestValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(1, policy="lifo")

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(0)

    def test_slot_context_manager_releases_on_error(self):
        ctrl = AdmissionController(1)
        with pytest.raises(RuntimeError):
            with ctrl.slot():
                assert ctrl.inflight == 1
                raise RuntimeError("boom")
        assert ctrl.inflight == 0


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2.0,
                             clock=lambda: clock[0])
        assert bucket.try_consume()
        assert bucket.try_consume()
        assert not bucket.try_consume()  # burst exhausted
        clock[0] = 1.0  # one second -> one token back
        assert bucket.try_consume()
        assert not bucket.try_consume()

    def test_refill_caps_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, burst=3.0,
                             clock=lambda: clock[0])
        clock[0] = 100.0
        assert all(bucket.try_consume() for _ in range(3))
        assert not bucket.try_consume()


class TestRateLimiter:
    def test_disabled_by_default(self):
        limiter = RateLimiter()
        for _ in range(1000):
            limiter.check("anyone")  # never raises

    def test_per_client_isolation(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0,
                              clock=lambda: clock[0])
        limiter.check("a")
        with pytest.raises(RateLimited):
            limiter.check("a")
        limiter.check("b")  # a separate bucket

    def test_refill_restores_budget(self):
        clock = [0.0]
        limiter = RateLimiter(rate=2.0, burst=1.0,
                              clock=lambda: clock[0])
        limiter.check("a")
        with pytest.raises(RateLimited):
            limiter.check("a")
        clock[0] = 0.5  # 2 rps -> one token after half a second
        limiter.check("a")

    def test_rate_limited_error_metadata(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0,
                              clock=lambda: clock[0])
        limiter.check("a")
        try:
            limiter.check("a")
        except RateLimited as exc:
            assert exc.retriable
            assert exc.code == "rate-limited"
