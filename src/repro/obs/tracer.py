"""Hierarchical tracing spans for the generation pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects — one per
instrumented phase of the pipeline (``parse``, ``resolve``,
``topology``, ``step1``, ``render:<file>``, ...). Spans nest through a
stack kept by the tracer, carry wall-clock duration and free-form
attributes, and are later frozen into a
:class:`~repro.obs.trace.PipelineTrace` for export.

Instrumented code never holds a tracer reference: it calls the
module-level :func:`span` helper, which looks up the ambient tracer in
a :class:`contextvars.ContextVar`. When no tracer is active the helper
returns a shared :data:`NULL_SPAN` singleton whose every method is a
no-op, so instrumentation costs one context-variable read per span and
allocates nothing — the "zero cost when disabled" contract.

Usage::

    tracer = Tracer()
    with tracer.activate():
        with span("parse", file="plant.sysml") as s:
            model = load_model(text)
            s.set("elements", len(model.owned_elements))
    print(tracer.trace().render())
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar


class Span:
    """One timed phase; a node in the trace tree."""

    __slots__ = ("name", "attributes", "children", "started", "duration",
                 "_tracer")

    #: Real spans record; call sites can gate expensive attributes on this.
    enabled = True

    def __init__(self, name: str, attributes: dict, tracer: "Tracer"):
        self.name = name
        self.attributes = attributes
        self.children: list[Span] = []
        self.started = 0.0
        self.duration = 0.0
        self._tracer = tracer

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.started
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self._tracer._pop(self)
        return False

    def set(self, key: str, value: object) -> None:
        """Attach an attribute (element counts, file names, bytes...)."""
        self.attributes[key] = value

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
                f"children={len(self.children)})")


class _NullSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: object) -> None:
        pass

    def __repr__(self) -> str:
        return "NullSpan()"


NULL_SPAN = _NullSpan()


class NullTracer:
    """The default ambient tracer: every span is the no-op singleton."""

    enabled = False

    def span(self, name: str, **attributes) -> _NullSpan:
        return NULL_SPAN

    def attach(self, span) -> None:
        pass

    @contextmanager
    def activate(self):
        """Deactivate tracing in the enclosed block."""
        token = _ACTIVE_TRACER.set(self)
        try:
            yield self
        finally:
            _ACTIVE_TRACER.reset(token)

    def trace(self):
        return None


NULL_TRACER = NullTracer()

_ACTIVE_TRACER: ContextVar["Tracer | NullTracer"] = ContextVar(
    "repro_obs_tracer", default=NULL_TRACER)


class Tracer:
    """Collects a forest of spans for one traced operation."""

    enabled = True

    def __init__(self, name: str = "pipeline"):
        self.name = name
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- span lifecycle (driven by Span.__enter__/__exit__) ----------------

    def span(self, name: str, **attributes) -> Span:
        return Span(name, attributes, self)

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # tolerate exceptions unwinding several spans out of order
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    def attach(self, span: Span) -> None:
        """Adopt an already-finished span as a child of the open span.

        Worker pools record spans off-thread (where the ambient tracer
        is not active) and fold them back here, so parallel phases keep
        per-unit timings in the exported :class:`PipelineTrace`.
        """
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    # -- activation ---------------------------------------------------------

    @contextmanager
    def activate(self):
        """Make this tracer the ambient one for the enclosed block."""
        token = _ACTIVE_TRACER.set(self)
        try:
            yield self
        finally:
            _ACTIVE_TRACER.reset(token)

    # -- export ------------------------------------------------------------

    def trace(self):
        """Freeze the recorded spans into a :class:`PipelineTrace`."""
        from .trace import PipelineTrace
        return PipelineTrace.from_tracer(self)


def span(name: str, **attributes) -> Span | _NullSpan:
    """Open a span on the ambient tracer (no-op when tracing is off)."""
    return _ACTIVE_TRACER.get().span(name, **attributes)


def record_span(name: str, seconds: float, **attributes) -> None:
    """Attach a pre-timed span to the ambient tracer.

    Used when the work happened somewhere the ambient tracer could not
    follow (a worker thread or process): the caller measured *seconds*
    itself and folds the result back into the trace tree after the fact.
    No-op when tracing is off.
    """
    tracer = _ACTIVE_TRACER.get()
    if not tracer.enabled:
        return
    recorded = tracer.span(name, **attributes)
    recorded.duration = seconds
    tracer.attach(recorded)


@contextmanager
def activation(tracer: Tracer | None):
    """Activate *tracer* if given, else keep the ambient one.

    Yields the effective tracer either way — the pattern pipeline entry
    points use to honour both an explicit ``options.tracer`` and a
    tracer activated further up the call stack (e.g. by the CLI).
    """
    if tracer is not None:
        with tracer.activate():
            yield tracer
    else:
        yield _ACTIVE_TRACER.get()
