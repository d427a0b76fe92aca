"""Deterministic fan-out for planning and conformance runs.

:func:`map_ordered` is the one primitive: apply a function to every item
of a list, possibly on a worker pool, and return the results **in input
order** — so a parallel phase is byte-for-byte identical to its serial
counterpart no matter how the scheduler interleaves workers.

It runs one of two ways:

* ``jobs <= 1`` or fewer than two items — a plain in-process loop; the
  ambient tracer stays active, so spans opened inside the function
  record normally.
* otherwise — a :class:`~concurrent.futures.ProcessPoolExecutor` with a
  ``fork`` context where available, at the cost of pickling task and
  result. Function, items and results must therefore pickle: pass
  module-level functions or :func:`functools.partial` over them, never
  lambdas or closures. There is no thread pool: the units fanned out
  here are GIL-bound pure Python, and threads over them measured no
  faster than the loop.

Worker processes do not see the caller's ambient tracer or metrics
registry, so every unit's wall time is measured in the worker and
folded back into the trace afterwards via :func:`repro.obs.record_span`
— the per-worker spans the :class:`~repro.obs.PipelineTrace` reports
for parallel phases. Each unit also returns the counter increments it
made in its worker, and the caller adds them to its own registry, so
counters read the same at any ``jobs``. Histogram observations made in
a worker stay there.

**Crash resilience.** The caller's active :class:`~repro.faults.FaultPlan`
travels with each task, so a chaos run can crash workers at the
``parallel.worker`` fault site. A crashed unit (injected, or a pool
broken for real — :class:`~concurrent.futures.BrokenExecutor`) never
surfaces to the caller: the unit is retried up to
:data:`WORKER_MAX_ATTEMPTS` times and, if it keeps crashing, re-run
*serially* in the caller's process — the degraded-but-correct path.
Results stay in input order and byte-identical to a fault-free run;
``parallel.worker_retries`` / ``parallel.serial_fallbacks`` count the
degradation. Exceptions raised by the unit function itself (not
injected crashes) propagate unchanged.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from ..faults import FaultPlan, InjectedCrash, active_plan, fault_point
from ..obs import METRICS, record_span, span

_TASKS = METRICS.counter("parallel.tasks")
_POOLS = METRICS.counter("parallel.pools")
_WORKER_RETRIES = METRICS.counter("parallel.worker_retries")
_SERIAL_FALLBACKS = METRICS.counter("parallel.serial_fallbacks")

_ITEM = TypeVar("_ITEM")
_RESULT = TypeVar("_RESULT")

#: Attempts per unit (first try + retries) before the serial fallback.
WORKER_MAX_ATTEMPTS = 3


class _Crashed:
    """Sentinel result: this unit's worker crashed (injected)."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


def _timed_call(task: tuple) -> tuple:
    """Run one unit in a worker, returning (result, wall seconds).

    Module-level so process pools can pickle it; the function, item and
    the caller's fault plan travel together as the task payload (the
    ambient plan's context variable does not cross the pool). An
    injected crash comes back as a :class:`_Crashed` sentinel so one
    dead unit does not abort the whole ``pool.map``.
    """
    fn, item, plan = task
    started = time.perf_counter()
    try:
        if plan is not None:
            with plan.activated():
                fault_point("parallel.worker")
                result = fn(item)
        else:
            result = fn(item)
    except InjectedCrash as error:
        return _Crashed(error), time.perf_counter() - started
    return result, time.perf_counter() - started


def _pooled_call(task: tuple) -> tuple:
    """:func:`_timed_call` in a pool worker, plus the counter
    increments the unit made there: ``(result, seconds, deltas)``."""
    before = METRICS.counter_values()
    result, seconds = _timed_call(task)
    deltas = {name: value - before.get(name, 0)
              for name, value in METRICS.counter_values().items()
              if value != before.get(name, 0)}
    return result, seconds, deltas


def _make_pool(jobs: int) -> ProcessPoolExecutor:
    methods = multiprocessing.get_all_start_methods()
    context = (multiprocessing.get_context("fork")
               if "fork" in methods else None)
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context)


def map_ordered(fn: Callable[[_ITEM], _RESULT],
                items: Iterable[_ITEM], *,
                jobs: int = 1,
                span_label: Callable[[_ITEM, int], str] | None = None,
                pool_span: str = "parallel") -> list[_RESULT]:
    """Apply *fn* to every item, results in input order.

    With ``jobs <= 1`` or fewer than two items, this is a plain loop
    (no pool, ambient tracer intact). Otherwise the items run on a
    process pool of ``min(jobs, len(items))`` workers under a
    *pool_span* span carrying ``jobs``/``tasks`` attributes; when
    *span_label* is given, each unit's worker-measured duration is
    folded back as a child span named ``span_label(item, index)``.
    """
    work: Sequence[_ITEM] = list(items)
    if jobs <= 1 or len(work) < 2:
        return [fn(item) for item in work]
    jobs = min(jobs, len(work))
    plan = active_plan()
    _POOLS.inc()
    _TASKS.inc(len(work))
    with span(pool_span, jobs=jobs, tasks=len(work)):
        chunksize = max(1, len(work) // (jobs * 4))
        tasks = [(fn, item, plan) for item in work]
        try:
            with _make_pool(jobs) as pool:
                pooled = list(pool.map(_pooled_call, tasks,
                                       chunksize=chunksize))
            timed = []
            for result, seconds, deltas in pooled:
                for name, amount in deltas.items():
                    METRICS.counter(name).inc(amount)
                timed.append((result, seconds))
        except BrokenExecutor:
            # the pool itself died (a worker process was killed):
            # degrade to the serial path rather than fail the phase
            _SERIAL_FALLBACKS.inc(len(work))
            timed = [_timed_call((fn, item, None)) for item in work]
        for index, (result, seconds) in enumerate(timed):
            if isinstance(result, _Crashed):
                timed[index] = _repair_unit(fn, work[index], plan,
                                            seconds)
        if span_label is not None:
            for index, (_, seconds) in enumerate(timed):
                record_span(span_label(work[index], index), seconds,
                            worker_pool=pool_span)
    return [result for result, _ in timed]


def _repair_unit(fn, item, plan: FaultPlan | None,
                 seconds: float) -> tuple:
    """Recover one crashed unit: retry under the plan, then run it
    serially with injection off — correctness over chaos."""
    for _ in range(WORKER_MAX_ATTEMPTS - 1):
        _WORKER_RETRIES.inc()
        result, retry_seconds = _timed_call((fn, item, plan))
        seconds += retry_seconds
        if not isinstance(result, _Crashed):
            return result, seconds
    _SERIAL_FALLBACKS.inc()
    started = time.perf_counter()
    result = fn(item)
    return result, seconds + (time.perf_counter() - started)
