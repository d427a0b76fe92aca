"""Process-wide metrics registry: counters, gauges, histograms.

Unlike spans (scoped to one traced operation), metrics accumulate for
the lifetime of the process and cover the runtime components too —
broker message counts, OPC UA session operations, pods deployed.
Instrumented modules bind their instruments once at import time::

    _PUBLISHED = METRICS.counter("broker.messages_published")
    ...
    _PUBLISHED.inc()

so the hot-path cost is a single integer add. ``METRICS.snapshot()``
returns a plain dict suitable for JSON export; tests call
``METRICS.reset()`` between scenarios.

Instruments are thread-safe: the serving layer (:mod:`repro.service`)
updates them from many request threads at once, and single-flight
accounting (``service.pipeline_executions`` vs ``service.requests``)
must be exact, not approximately right. Each instrument carries its
own lock; :func:`snapshot_delta` diffs two registry snapshots to
attribute activity to one request or one scenario.
"""

from __future__ import annotations

import json
import threading


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A value that goes up and down (current sessions, pods running)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Collects observations and reports count/mean/p50/p95/max."""

    __slots__ = ("name", "values", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.values.append(value)

    def reset(self) -> None:
        with self._lock:
            self.values.clear()

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            values = list(self.values)
        if not values:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "max": 0.0}
        ordered = sorted(values)

        def rank(fraction: float) -> float:
            return ordered[max(0, min(len(ordered) - 1,
                                      round(fraction * (len(ordered) - 1))))]

        return {
            "count": len(values),
            "mean": sum(values) / len(values),
            "p50": rank(0.50),
            "p95": rank(0.95),
            "max": ordered[-1],
        }


class MetricsRegistry:
    """Keeps one instrument per name; idempotent accessors."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def counter_values(self) -> dict[str, int]:
        """Every counter's value — the cheap part of :meth:`snapshot`."""
        return {name: counter.value
                for name, counter in self._counters.items()}

    def snapshot(self) -> dict[str, object]:
        """All instruments as a JSON-serializable mapping."""
        out: dict[str, object] = {}
        for name, counter in sorted(self._counters.items()):
            out[name] = counter.snapshot()
        for name, gauge in sorted(self._gauges.items()):
            out[name] = gauge.snapshot()
        for name, histogram in sorted(self._histograms.items()):
            out[name] = histogram.snapshot()
        return out

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def reset(self) -> None:
        """Zero every instrument (instruments stay registered)."""
        for group in (self._counters, self._gauges, self._histograms):
            for instrument in group.values():
                instrument.reset()


#: The process-wide registry all instrumented modules share.
METRICS = MetricsRegistry()


def snapshot_delta(before: dict[str, object],
                   after: dict[str, object]) -> dict[str, object]:
    """What changed between two :meth:`MetricsRegistry.snapshot` captures.

    The registry is process-wide, so attributing activity to one request
    (or one test scenario) means snapshotting around it and diffing::

        before = METRICS.snapshot()
        ...handle the request...
        delta = snapshot_delta(before, METRICS.snapshot())

    Counters and gauges diff numerically; histograms report how many new
    observations landed (``{"count": n}``). Unchanged instruments are
    omitted, so the delta reads as "what this request did": e.g. a
    single-flight follower shows no ``service.pipeline_executions``
    while the leader shows ``1``.
    """
    delta: dict[str, object] = {}
    for name, value in after.items():
        prev = before.get(name)
        if isinstance(value, dict):  # histogram snapshot
            prev_count = prev.get("count", 0) if isinstance(prev, dict) \
                else 0
            grew = value.get("count", 0) - prev_count
            if grew:
                delta[name] = {"count": grew}
        elif isinstance(value, (int, float)):
            base = prev if isinstance(prev, (int, float)) else 0
            if value != base:
                delta[name] = value - base
        elif value != prev:
            delta[name] = value
    return delta


def aggregate_snapshots(
        snapshots: list[dict[str, object]]) -> dict[str, object]:
    """Merge per-process registry snapshots into one fleet view.

    The sharded serving router calls each worker's ``/metrics`` and
    presents the union: counters and gauges **sum exactly** (each worker
    process owns its own registry, so there is nothing to double-count),
    and histograms merge as:

    * ``count`` — exact sum;
    * ``mean`` — exact count-weighted mean;
    * ``max`` — exact max;
    * ``p50``/``p95`` — count-weighted average of the per-worker
      percentiles. This is an *approximation* (true fleet percentiles
      need the raw observations, which workers don't export); it is
      exact when shards see identically distributed latencies and
      bounded by the per-worker extremes otherwise.

    A name missing from some snapshots contributes only where present.
    """
    merged: dict[str, object] = {}
    histogram_counts: dict[str, int] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if isinstance(value, dict):  # histogram snapshot
                count = int(value.get("count", 0))
                current = merged.get(name)
                if not isinstance(current, dict):
                    current = {"count": 0, "mean": 0.0, "p50": 0.0,
                               "p95": 0.0, "max": 0.0}
                    merged[name] = current
                    histogram_counts[name] = 0
                if count == 0:
                    continue
                seen = histogram_counts[name]
                total = seen + count
                for field in ("mean", "p50", "p95"):
                    current[field] = (
                        (current[field] * seen
                         + float(value.get(field, 0.0)) * count) / total)
                current["max"] = max(current["max"],
                                     float(value.get("max", 0.0)))
                current["count"] = total
                histogram_counts[name] = total
            elif isinstance(value, (int, float)):
                base = merged.get(name, 0)
                merged[name] = (base if isinstance(base, (int, float))
                                else 0) + value
            else:  # non-numeric oddity: last writer wins
                merged[name] = value
    return merged
