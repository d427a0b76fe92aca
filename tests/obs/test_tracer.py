"""Tracing spans: nesting, timing, attributes, no-op mode."""

import time

import pytest

from repro.obs import NULL_SPAN, NULL_TRACER, Tracer, current_tracer, span


class TestSpanNesting:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.activate():
            with span("outer"):
                with span("inner-a"):
                    pass
                with span("inner-b"):
                    with span("leaf"):
                        pass
        trace = tracer.trace()
        assert [r.name for r in trace.roots] == ["outer"]
        outer = trace.roots[0]
        assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.activate():
            with span("first"):
                pass
            with span("second"):
                pass
        assert [r.name for r in tracer.trace().roots] == ["first", "second"]

    def test_span_records_wall_time(self):
        tracer = Tracer()
        with tracer.activate():
            with span("sleepy"):
                time.sleep(0.02)
        record = tracer.trace().find("sleepy")
        assert record.duration_s >= 0.015

    def test_child_time_bounded_by_parent(self):
        tracer = Tracer()
        with tracer.activate():
            with span("parent"):
                with span("child"):
                    time.sleep(0.01)
                time.sleep(0.01)
        parent = tracer.trace().find("parent")
        child = parent.children[0]
        assert child.duration_s <= parent.duration_s

    def test_attributes(self):
        tracer = Tracer()
        with tracer.activate():
            with span("work", machines=10) as s:
                s.set("namespace", "icelab")
        record = tracer.trace().find("work")
        assert record.attributes == {"machines": 10, "namespace": "icelab"}

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.activate():
                with span("fails"):
                    raise ValueError("boom")
        record = tracer.trace().find("fails")
        assert record.attributes["error"] == "ValueError"
        assert record.duration_s >= 0.0


class TestNoOpMode:
    def test_ambient_default_is_null_tracer(self):
        assert current_tracer() is NULL_TRACER
        assert not current_tracer().enabled

    def test_span_outside_activation_is_the_null_singleton(self):
        # zero-cost when disabled: no allocation, shared no-op span
        assert span("anything", big=1) is NULL_SPAN
        assert span("other") is NULL_SPAN

    def test_null_span_is_inert(self):
        with span("nothing") as s:
            assert not s.enabled
            s.set("key", "value")

    def test_activation_restores_previous_tracer(self):
        tracer = Tracer()
        with tracer.activate():
            assert current_tracer() is tracer
            inner = Tracer()
            with inner.activate():
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_null_tracer_trace_is_none(self):
        assert NULL_TRACER.trace() is None

    def test_disabled_overhead_is_small(self):
        """Guard: a disabled span costs little more than a function call.

        Generous bound (50x an empty loop iteration) so the test stays
        robust on loaded CI machines while still catching accidental
        allocation or real work on the disabled path.
        """
        n = 20_000

        start = time.perf_counter()
        for _ in range(n):
            pass
        baseline = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(n):
            with span("hot", attr=1) as s:
                s.set("x", 1)
        disabled = time.perf_counter() - start

        assert disabled < max(baseline * 50, 0.25)
