"""map_ordered semantics: ordering, the serial path, span folding,
crash resilience under an active fault plan and on a dead pool.

Units that run with ``jobs > 1`` go to a process pool, so they are
module-level functions (lambdas and closures do not pickle).
"""

import functools
import os
import threading
import time

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.obs import METRICS, Tracer, activation, span
from repro.parallel import map_ordered


def _double(value):
    return value * 2


def _jittered_double(value):
    # later items finish first: completion order != input order
    time.sleep(0.02 * (5 - value) / 5)
    return value * 2


def _pid(_value):
    return os.getpid()


def _nap(_value):
    time.sleep(0.01)


def _boom(value):
    raise ValueError(f"unit {value} is broken")


_UNITS = METRICS.counter("test.parallel.units")


def _counted_double(value):
    _UNITS.inc()
    return value * 2


def _double_or_die_in_child(value, *, parent):
    # kills the worker process outright (no exception, no cleanup), but
    # runs normally once the caller re-runs the unit in its own process
    if os.getpid() != parent:
        os._exit(1)
    return value * 2


class TestOrdering:
    def test_results_keep_input_order_despite_jitter(self):
        items = list(range(5))
        assert (map_ordered(_jittered_double, items, jobs=4)
                == [0, 2, 4, 6, 8])

    def test_process_mode_matches_serial(self):
        items = list(range(8))
        assert (map_ordered(_double, items, jobs=2)
                == map_ordered(_double, items)
                == [v * 2 for v in items])

    def test_units_run_in_worker_processes(self):
        pids = map_ordered(_pid, list(range(4)), jobs=2)
        assert os.getpid() not in pids


class TestFallbacks:
    def test_jobs_one_runs_in_caller_thread(self):
        seen = []
        map_ordered(lambda _: seen.append(threading.get_ident()),
                    [1, 2, 3], jobs=1)
        assert set(seen) == {threading.get_ident()}

    def test_single_item_skips_pool(self):
        seen = []
        map_ordered(lambda _: seen.append(threading.get_ident()),
                    ["only"], jobs=8)
        assert seen == [threading.get_ident()]

    def test_empty_input(self):
        assert map_ordered(_double, [], jobs=4) == []

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_runs_serially(self, jobs):
        seen = []
        map_ordered(lambda _: seen.append(threading.get_ident()),
                    [1, 2, 3], jobs=jobs)
        assert seen == [threading.get_ident()] * 3


class TestWorkerCounters:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counters_bumped_in_workers_reach_the_caller(self, jobs):
        before = _UNITS.value
        assert map_ordered(_counted_double, list(range(5)),
                           jobs=jobs) == [0, 2, 4, 6, 8]
        assert _UNITS.value == before + 5


class TestCrashResilience:
    def _plan(self, **kwargs):
        return FaultPlan(seed=kwargs.pop("seed", 0), specs=(
            FaultSpec("parallel.worker", "crash", **kwargs),))

    def test_bounded_crashes_retry_to_correct_results(self):
        METRICS.reset()
        plan = self._plan(probability=1.0, max_injections=2)
        with plan.activated():
            result = map_ordered(_double, list(range(6)), jobs=3)
        # each task carries its own pickled copy of the plan, so the
        # injection budget is per copy; only the outcome is pinned
        assert result == [0, 2, 4, 6, 8, 10]
        assert METRICS.snapshot().get("parallel.worker_retries", 0) >= 1

    def test_persistent_crashes_fall_back_to_serial(self):
        METRICS.reset()
        plan = self._plan(probability=1.0)
        with plan.activated():
            result = map_ordered(_double, list(range(4)), jobs=2)
        assert result == [0, 2, 4, 6]
        assert METRICS.snapshot().get("parallel.serial_fallbacks") == 4

    def test_serial_path_never_hits_the_worker_site(self):
        plan = self._plan(probability=1.0)
        with plan.activated():
            assert map_ordered(_double, [1, 2, 3], jobs=1) == [2, 4, 6]
        assert plan.injection_count == 0

    def test_user_exceptions_still_propagate_under_a_plan(self):
        with self._plan(probability=0.5).activated():
            with pytest.raises(ValueError, match="is broken"):
                map_ordered(_boom, [1, 2, 3, 4], jobs=2)

    def test_dead_pool_falls_back_to_serial_in_order(self):
        METRICS.reset()
        unit = functools.partial(_double_or_die_in_child,
                                 parent=os.getpid())
        assert map_ordered(unit, list(range(5)), jobs=2) == [
            0, 2, 4, 6, 8]
        assert METRICS.snapshot().get("parallel.serial_fallbacks") == 5


class TestSpanFolding:
    def test_pool_span_and_per_item_spans_recorded(self):
        tracer = Tracer()
        with activation(tracer):
            map_ordered(_double, [1, 2, 3], jobs=2,
                        span_label=lambda item, _i: f"unit:{item}",
                        pool_span="test-pool")
        trace = tracer.trace()
        pool = trace.find("test-pool")
        assert pool is not None
        assert pool.attributes["jobs"] == 2
        assert pool.attributes["tasks"] == 3
        labels = {record.name for record in trace.iter_spans()}
        assert {"unit:1", "unit:2", "unit:3"} <= labels

    def test_folded_spans_carry_worker_durations(self):
        tracer = Tracer()
        with activation(tracer):
            map_ordered(_nap, [1, 2], jobs=2,
                        span_label=lambda item, _i: f"sleep:{item}",
                        pool_span="sleep-pool")
        spans = tracer.trace().find_all("sleep:")
        assert len(spans) == 2
        assert all(record.duration_s >= 0.005 for record in spans)

    def test_serial_path_leaves_ambient_tracer_usable(self):
        def unit(value):
            with span("inner"):
                return value

        tracer = Tracer()
        with activation(tracer):
            map_ordered(unit, [1], jobs=1)
        assert tracer.trace().find("inner") is not None
