"""Frozen, exportable pipeline traces.

A :class:`PipelineTrace` is the immutable snapshot of everything a
:class:`~repro.obs.tracer.Tracer` recorded: the span tree (with
durations and attributes) plus a snapshot of the process-wide
metrics registry. It is attached to
:class:`~repro.codegen.pipeline.GenerationResult` and exportable as
JSON (``to_json``) or a rendered tree report (``render``)::

    generate                          11.85ms  100.0%
    ├─ topology                        2.31ms   19.5%  machines=10
    ├─ validate                        0.18ms    1.5%
    ├─ step1                           1.02ms    8.6%
    │  ├─ machine:conveyor             0.11ms    0.9%
    │  └─ grouping                     0.04ms    0.3%  placements=17
    └─ step2                           8.11ms   68.4%
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterator

from .metrics import METRICS
from .summary import Summarizable

#: Bump when the exported JSON layout changes.
TRACE_SCHEMA_VERSION = 2


@dataclass
class SpanRecord:
    """One frozen span: a node of the exported trace tree."""

    name: str
    duration_s: float
    attributes: dict[str, object] = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list)

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "duration_s": round(self.duration_s, 9),
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def walk(self) -> Iterator["SpanRecord"]:
        yield self
        for child in self.children:
            yield from child.walk()


def _freeze(span) -> SpanRecord:
    duration = span.duration
    if duration == 0.0 and span.started:
        duration = time.perf_counter() - span.started  # still open
    return SpanRecord(
        name=span.name,
        duration_s=duration,
        attributes=dict(span.attributes),
        children=[_freeze(child) for child in span.children],
    )


class PipelineTrace(Summarizable):
    """The exportable outcome of one traced pipeline run."""

    def __init__(self, roots: list[SpanRecord],
                 metrics: dict[str, object] | None = None,
                 name: str = "pipeline"):
        self.name = name
        self.roots = roots
        self.metrics = metrics if metrics is not None else {}

    @classmethod
    def from_tracer(cls, tracer) -> "PipelineTrace":
        return cls(roots=[_freeze(root) for root in tracer.roots],
                   metrics=METRICS.snapshot(), name=tracer.name)

    # -- queries ------------------------------------------------------------

    def iter_spans(self) -> Iterator[SpanRecord]:
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> SpanRecord | None:
        """First span with *name*, depth-first."""
        for record in self.iter_spans():
            if record.name == name:
                return record
        return None

    @property
    def span_count(self) -> int:
        return sum(1 for _ in self.iter_spans())

    @property
    def total_seconds(self) -> float:
        return sum(root.duration_s for root in self.roots)

    def phase_seconds(self) -> dict[str, float]:
        """Top-level phase durations, the bench-JSON attribution unit.

        The direct children of the ``generate`` span (topology,
        validate, step1, step2) plus any front-end root phases (parse,
        resolve) recorded alongside it.
        """
        phases: dict[str, float] = {}

        def add(record: SpanRecord) -> None:
            phases[record.name] = (phases.get(record.name, 0.0)
                                   + record.duration_s)

        generate = self.find("generate")
        for root in self.roots:
            if generate is not None and any(r is generate
                                            for r in root.walk()):
                continue
            add(root)
        if generate is not None:
            for child in generate.children:
                add(child)
        return phases

    # -- export -------------------------------------------------------------

    def summary(self) -> dict[str, object]:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "total_seconds": round(self.total_seconds, 6),
            "span_count": self.span_count,
            "phases": {name: round(seconds, 6)
                       for name, seconds in self.phase_seconds().items()},
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "total_seconds": round(self.total_seconds, 9),
            "spans": [root.to_dict() for root in self.roots],
            "metrics": dict(self.metrics),
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """The full trace tree (not just the summary) as JSON."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def render(self) -> str:
        """A flamegraph-style text tree with per-span timings."""
        lines: list[str] = []
        total = self.total_seconds or 1e-12
        name_width = self._name_width()

        def emit(record: SpanRecord, prefix: str, tail: str) -> None:
            fraction = record.duration_s / total
            label = prefix + tail + record.name
            extras = [f"{k}={v}" for k, v in record.attributes.items()]
            suffix = ("  " + " ".join(extras)) if extras else ""
            lines.append(f"{label:<{name_width}} "
                         f"{record.duration_s * 1e3:>9.2f}ms "
                         f"{fraction * 100:>6.1f}%{suffix}")
            child_prefix = prefix + ("   " if tail == "└─ " else
                                     "│  " if tail == "├─ " else "")
            for index, child in enumerate(record.children):
                last = index == len(record.children) - 1
                emit(child, child_prefix, "└─ " if last else "├─ ")

        for root in self.roots:
            emit(root, "", "")
        return "\n".join(lines) or "(empty trace)"

    def _name_width(self) -> int:
        width = 8
        for root in self.roots:
            for record, depth in _walk_depth(root, 0):
                width = max(width, 3 * depth + len(record.name))
        return min(width + 2, 60)

    def __repr__(self) -> str:
        return (f"PipelineTrace(spans={self.span_count}, "
                f"total={self.total_seconds * 1e3:.2f}ms)")


def _walk_depth(record: SpanRecord, depth: int):
    yield record, depth
    for child in record.children:
        yield from _walk_depth(child, depth + 1)
