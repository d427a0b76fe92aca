"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one table/figure of the paper and prints a
paper-vs-measured comparison (visible with ``pytest benchmarks/ -s`` or
in the captured output block on failure).
"""

import pytest

from repro.codegen import PipelineOptions, generate_configuration
from repro.icelab import icelab_model
from repro.isa95 import extract_topology
from repro.obs import Tracer


@pytest.fixture(scope="session")
def model():
    """The full ICE-lab SysML v2 model (parsed once per session)."""
    return icelab_model()


@pytest.fixture(scope="session")
def topology(model):
    return extract_topology(model)


@pytest.fixture(scope="session")
def generation(model):
    """A traced generation run; ``generation.trace`` carries phase data."""
    with Tracer().activate():
        return generate_configuration(
            model, options=PipelineOptions(namespace="icelab"))


def record_phases(benchmark, trace) -> None:
    """Attach per-phase wall times to the bench JSON (``extra_info``).

    ``pytest-benchmark --benchmark-json=out.json`` then carries a
    ``phases`` mapping per benchmark, so a perf PR can attribute its
    win to parse/resolve/topology/validate/step1/step2 instead of the
    end-to-end number alone.
    """
    if trace is None:
        return
    benchmark.extra_info["phases"] = {
        name: round(seconds, 6)
        for name, seconds in trace.phase_seconds().items()}
    benchmark.extra_info["span_count"] = trace.span_count


def print_comparison(title: str, rows: list[tuple]) -> None:
    """Render a (quantity, paper, measured[, note]) comparison table."""
    width = max(len(str(r[0])) for r in rows) + 2
    print(f"\n=== {title} ===")
    print(f"{'quantity':<{width}} {'paper':>12} {'measured':>12}  note")
    for row in rows:
        quantity, paper, measured = row[0], row[1], row[2]
        note = row[3] if len(row) > 3 else ""
        print(f"{quantity:<{width}} {paper!s:>12} {measured!s:>12}  {note}")
