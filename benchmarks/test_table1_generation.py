"""T1-gen: Table I, last row — the automatic generation results.

Paper: generation time 3.19 s, 6 OPC UA servers, 4 OPC UA clients,
697 KB of configuration. We benchmark the identical pipeline (model ->
JSON -> YAML) on the identical inventory. Time is measured on our
substrate (pure Python, no Kubernetes API), so the assertion is
order-of-magnitude (seconds, not minutes); server/client counts must
match exactly; size must be the same order of magnitude.
"""

from conftest import print_comparison, record_phases
from repro.codegen import generate_configuration
from repro.obs import Tracer

PAPER = {"time_s": 3.19, "servers": 6, "clients": 4, "size_kb": 697}


def test_table1_generation(benchmark, model):
    result = benchmark(generate_configuration, model)
    # one extra traced run attributes the timing to pipeline phases in
    # the bench JSON (the timed runs above stay untraced)
    with Tracer().activate():
        traced = generate_configuration(model)
    record_phases(benchmark, traced.trace)
    print_comparison("Table I — generation results", [
        ("generation time (s)", PAPER["time_s"],
         round(result.generation_seconds, 3), "same order (seconds)"),
        ("# OPC UA servers", PAPER["servers"], result.opcua_server_count,
         "exact"),
        ("# OPC UA clients", PAPER["clients"], result.opcua_client_count,
         "exact (capacity=120)"),
        ("config size (KB)", PAPER["size_kb"],
         round(result.config_size_kb), "same order"),
    ])
    assert result.opcua_server_count == PAPER["servers"]
    assert result.opcua_client_count == PAPER["clients"]
    assert result.generation_seconds < 10 * PAPER["time_s"]
    assert PAPER["size_kb"] / 3.5 <= result.config_size_kb \
        <= PAPER["size_kb"] * 3.5


def test_full_front_end_plus_generation_time(benchmark):
    """Model text -> parse -> resolve -> validate -> generate, timed.

    This is the closest analogue of the paper's 3.19 s figure, which
    starts from the authored model artifacts.
    """
    from repro.icelab import icelab_sources
    from repro.sysml import load_model

    sources = icelab_sources()

    def whole_flow():
        loaded = load_model(*sources)
        return generate_configuration(loaded)

    result = benchmark.pedantic(whole_flow, rounds=3, iterations=1)
    # traced run attributes front-end phases (parse/resolve) too
    tracer = Tracer()
    with tracer.activate():
        whole_flow()
    record_phases(benchmark, tracer.trace())
    print_comparison("end-to-end generation (incl. parsing)", [
        ("time (s)", PAPER["time_s"], "see benchmark table",
         "paper includes their model load too"),
        ("# servers", PAPER["servers"], result.opcua_server_count),
        ("# clients", PAPER["clients"], result.opcua_client_count),
    ])
    assert result.opcua_server_count == PAPER["servers"]


def test_grouping_is_the_published_one(generation):
    """The 4 clients partition the machines as capacity-120 FFD does."""
    groups = {g.name: sorted(g.machine_names) for g in generation.groups}
    assert groups == {
        "opcua-client-01": ["conveyor"],
        "opcua-client-02": ["fiam", "ur5"],
        "opcua-client-03": ["emco", "kairos1", "qcPc", "siemensPlc"],
        "opcua-client-04": ["kairos2", "spea", "warehouse"],
    }
