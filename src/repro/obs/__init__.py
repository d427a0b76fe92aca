"""Observability for the generation pipeline and runtime components.

Three pieces:

* **Tracing** (:mod:`.tracer`) — hierarchical spans with wall-clock
  timings and attributes. Instrumented code calls the
  module-level :func:`span` helper; with no active tracer every call
  resolves to a shared no-op singleton (zero cost when disabled).
* **Metrics** (:mod:`.metrics`) — a process-wide registry of counters,
  gauges and histograms (p50/p95/max) fed by the broker, OPC UA stack,
  Kubernetes simulator and template engine.
* **Traces** (:mod:`.trace`) — :class:`PipelineTrace`, the frozen
  span-tree + metrics snapshot attached to generation results and
  exportable as JSON or a rendered tree report.

:class:`Summarizable` (:mod:`.summary`) is the shared
``summary()``/``to_json()`` protocol of all result-like objects.
"""

from .metrics import (Counter, Gauge, Histogram, METRICS, MetricsRegistry,
                      aggregate_snapshots, snapshot_delta)
from .summary import Summarizable
from .trace import PipelineTrace, SpanRecord, TRACE_SCHEMA_VERSION
from .tracer import (NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer,
                     current_tracer, record_span, span)

__all__ = [
    "Counter", "Gauge", "Histogram", "METRICS", "MetricsRegistry",
    "NULL_SPAN", "NULL_TRACER", "NullTracer", "PipelineTrace", "Span",
    "SpanRecord", "Summarizable", "TRACE_SCHEMA_VERSION", "Tracer",
    "aggregate_snapshots", "current_tracer", "record_span",
    "snapshot_delta", "span",
]
