"""PipelineTrace: JSON schema, phase attribution, rendering, protocol."""

import json

import pytest

from repro.codegen import PipelineOptions, generate_configuration
from repro.icelab import icelab_model, icelab_sources
from repro.obs import TRACE_SCHEMA_VERSION, PipelineTrace, Tracer
from repro.sysml import load_model


@pytest.fixture(scope="module")
def traced_result():
    """A full traced run: front end + generation under one tracer."""
    tracer = Tracer()
    with tracer.activate():
        model = load_model(*icelab_sources())
        result = generate_configuration(
            model, options=PipelineOptions(namespace="icelab"))
    return result, tracer.trace()


class TestTraceContents:
    def test_result_carries_its_trace(self, traced_result):
        result, _ = traced_result
        assert isinstance(result.trace, PipelineTrace)
        assert result.trace.find("generate") is not None

    def test_pipeline_phases_are_present(self, traced_result):
        _, trace = traced_result
        for name in ("parse", "resolve", "generate", "topology",
                     "validate", "step1", "step2", "grouping"):
            assert trace.find(name) is not None, name

    def test_per_machine_and_per_template_spans(self, traced_result):
        _, trace = traced_result
        machines = [s for s in trace.iter_spans()
                    if s.name.startswith("machine:")]
        renders = [s for s in trace.iter_spans()
                   if s.name.startswith("render:")]
        assert len(machines) == 10  # the ICE lab inventory (Table I)
        assert any(s.name == "machine:emco" for s in machines)
        assert len(renders) >= 10
        assert all(s.attributes.get("bytes", 0) > 0 for s in renders)

    def test_generate_children_sum_to_generation_seconds(
            self, traced_result):
        """Acceptance: per-span timings sum to ~ the end-to-end figure."""
        result, trace = traced_result
        generate = trace.find("generate")
        child_sum = sum(c.duration_s for c in generate.children)
        assert child_sum <= generate.duration_s
        assert child_sum == pytest.approx(result.generation_seconds,
                                          rel=0.25)

    def test_phase_seconds_covers_front_end_and_pipeline(
            self, traced_result):
        _, trace = traced_result
        phases = trace.phase_seconds()
        for name in ("parse", "resolve", "topology", "validate",
                     "step1", "step2"):
            assert name in phases, name
            assert phases[name] >= 0.0
        assert "generate" not in phases  # replaced by its children


class TestTraceExport:
    def test_json_schema(self, traced_result):
        _, trace = traced_result
        document = json.loads(trace.to_json())
        assert document["schema_version"] == TRACE_SCHEMA_VERSION
        assert set(document) == {"schema_version", "name",
                                 "total_seconds", "spans", "metrics"}
        span = document["spans"][0]
        assert set(span) == {"name", "duration_s", "attributes",
                             "children"}
        assert isinstance(document["metrics"], dict)

    def test_summary_protocol(self, traced_result):
        _, trace = traced_result
        summary = trace.summary()
        assert summary["schema_version"] == TRACE_SCHEMA_VERSION
        assert summary["span_count"] == trace.span_count
        assert json.loads(trace.to_json())  # round-trips

    def test_render_tree(self, traced_result):
        _, trace = traced_result
        text = trace.render()
        assert "generate" in text
        assert "├─" in text and "└─" in text
        assert "ms" in text and "%" in text


class TestDisabledPath:
    def test_untraced_run_has_no_trace(self):
        result = generate_configuration(icelab_model())
        assert result.trace is None

    def test_active_tracer_enables_tracing(self):
        with Tracer().activate():
            result = generate_configuration(icelab_model())
        assert result.trace is not None
        assert result.trace.find("step2") is not None


class TestSummarizable:
    def test_generation_result_summary(self, traced_result):
        result, _ = traced_result
        summary = result.summary()
        assert summary["opcua_servers"] == 6
        assert summary["opcua_clients"] == 4
        assert json.loads(result.to_json())

    def test_diagnostic_report_summary(self):
        from repro.sysml import validate_model
        report = validate_model(icelab_model())
        summary = report.summary()
        assert summary["ok"] is True
        assert isinstance(summary["diagnostics"], list)
        assert json.loads(report.to_json())
