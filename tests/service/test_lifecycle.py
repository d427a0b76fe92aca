"""Graceful-drain state machine (repro.service.lifecycle)."""

import threading

import pytest

from repro.service import (STATE_DRAINING, STATE_SERVING, STATE_STOPPED,
                           ServiceDraining, ServiceLifecycle)
from repro.testkit import wait_until


class TestLifecycle:
    def test_initial_state_serves(self):
        lifecycle = ServiceLifecycle()
        assert lifecycle.state == STATE_SERVING
        assert lifecycle.serving
        lifecycle.request_started()
        assert lifecycle.active == 1
        lifecycle.request_finished()
        assert lifecycle.active == 0

    def test_drain_with_no_work_completes_immediately(self):
        lifecycle = ServiceLifecycle()
        report = lifecycle.drain(deadline=1.0)
        assert report.completed
        assert report.remaining == 0
        assert lifecycle.state == STATE_STOPPED

    def test_draining_refuses_new_requests(self):
        lifecycle = ServiceLifecycle()
        lifecycle.drain(deadline=0.1)
        with pytest.raises(ServiceDraining) as info:
            lifecycle.request_started()
        assert info.value.retriable
        assert info.value.code == "draining"

    def test_drain_waits_for_inflight_work(self):
        lifecycle = ServiceLifecycle()
        lifecycle.request_started()
        finished = threading.Event()
        report_box = {}

        def drainer():
            report_box["report"] = lifecycle.drain(deadline=5.0)
            finished.set()

        thread = threading.Thread(target=drainer)
        thread.start()
        wait_until(lambda: lifecycle.state == STATE_DRAINING,
                   timeout=5.0, message="drain never started")
        assert not finished.is_set()  # still waiting on our request
        lifecycle.request_finished()
        wait_until(finished.is_set, timeout=5.0,
                   message="drain never completed")
        thread.join(5)
        report = report_box["report"]
        assert report.completed
        assert report.remaining == 0

    def test_drain_deadline_reports_leftover_work(self):
        lifecycle = ServiceLifecycle()
        lifecycle.request_started()
        lifecycle.request_started()
        report = lifecycle.drain(deadline=0.1)
        assert not report.completed
        assert report.remaining == 2
        assert report.waited_seconds >= 0.08
        assert lifecycle.state == STATE_STOPPED

    def test_flush_hooks_run_once_even_on_deadline_expiry(self):
        lifecycle = ServiceLifecycle()
        flushed = []
        lifecycle.register_flush(lambda: flushed.append("metrics"))
        lifecycle.register_flush(lambda: flushed.append("cache"))
        lifecycle.request_started()
        report = lifecycle.drain(deadline=0.05)
        assert not report.completed
        assert flushed == ["metrics", "cache"]
        assert report.flushed == 2

    def test_broken_flush_hook_does_not_wedge_drain(self):
        lifecycle = ServiceLifecycle()
        flushed = []

        def broken():
            raise RuntimeError("flush failed")

        lifecycle.register_flush(broken)
        lifecycle.register_flush(lambda: flushed.append("ok"))
        report = lifecycle.drain(deadline=0.5)
        assert report.completed
        assert flushed == ["ok"]
        assert report.flushed == 2

    def test_drain_is_idempotent(self):
        lifecycle = ServiceLifecycle()
        first = lifecycle.drain(deadline=0.5)
        second = lifecycle.drain(deadline=0.5)
        assert second is first

    def test_report_summary_shape(self):
        lifecycle = ServiceLifecycle()
        report = lifecycle.drain(deadline=0.1)
        summary = report.summary()
        assert summary["completed"] is True
        assert set(summary) == {"completed", "waited_seconds",
                                "remaining", "flushed"}

    def test_report_round_trips_through_summary_json(self):
        # the sharded supervisor ships worker reports across process
        # boundaries as --drain-report-file JSON; from_summary is the
        # receiving end and must invert summary() exactly
        import json

        from repro.service.lifecycle import DrainReport

        lifecycle = ServiceLifecycle()
        lifecycle.register_flush(lambda: None)
        lifecycle.request_started()
        report = lifecycle.drain(deadline=0.05)
        wire = json.loads(json.dumps(report.summary()))
        clone = DrainReport.from_summary(wire)
        assert clone.completed == report.completed
        assert clone.remaining == report.remaining
        assert clone.flushed == report.flushed
        assert clone.waited_seconds == pytest.approx(
            report.waited_seconds, abs=1e-3)
        assert clone.summary() == report.summary()


class TestDeflakePolicy:
    def test_no_raw_sleeps_in_the_service_suite(self):
        # timing-sensitive service tests must synchronize on events or
        # poll with testkit.wait_until; a bare time.sleep is a latent
        # flake (too short on a loaded CI box, wasted wall-clock
        # otherwise), so the suite bans it outright — and the serving
        # tier itself is held to the same bar: every wait in
        # src/repro/service goes through the deadline helpers so it is
        # bounded and scripted-clock testable
        import repro.service
        from pathlib import Path

        banned = "time." + "sleep("  # split so this file passes its own scan
        scanned = sorted(Path(__file__).parent.glob("test_*.py"))
        scanned += sorted(Path(repro.service.__file__).parent.glob("*.py"))
        offenders = []
        for module in scanned:
            for number, line in enumerate(
                    module.read_text().splitlines(), start=1):
                if banned in line.split("#")[0]:
                    offenders.append(f"{module.name}:{number}")
        assert not offenders, (
            "raw time.sleep in service tests or the serving tier (use "
            f"wait_until / Deadline from repro.testkit): {offenders}")
