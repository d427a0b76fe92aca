"""Property-based tests over randomly generated factories.

The strongest invariants of the reproduction hold for *any* machine
inventory, not just the ICE lab: generated models must validate, the
port identity (ports = 2x points) must hold, every variable must appear
in exactly one client subscription, and the generated manifests must be
deployable.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.codegen import PipelineOptions, generate_configuration
from repro.icelab.model_gen import load_icelab_model
from repro.isa95.levels import VariableSpec
from repro.machines.catalog import DriverSpec, MachineSpec, simple_service
from repro.sysml import validate_model

names = st.text(string.ascii_lowercase, min_size=3, max_size=8)


@st.composite
def machine_specs(draw):
    count = draw(st.integers(1, 4))
    specs = []
    used: set[str] = set()
    for index in range(count):
        name = draw(names.filter(lambda n: n not in used))
        used.add(name)
        n_vars = draw(st.integers(1, 12))
        n_svcs = draw(st.integers(1, 4))
        categories = {"Data": [VariableSpec(f"v{i}", draw(st.sampled_from(
            ["Real", "Integer", "Boolean", "String"])))
            for i in range(n_vars)]}
        specs.append(MachineSpec(
            name=name,
            display_name=name.title(),
            type_name=name.title() + "Machine",
            workcell=f"cell{draw(st.integers(1, 2))}",
            driver=DriverSpec(
                protocol="OPCUADriver", is_generic=True,
                parameters={"endpoint":
                            f"opc.tcp://10.9.{index}.1:4840"}),
            categories=categories,
            services=[simple_service(f"svc{i}") for i in range(n_svcs)],
        ))
    return specs


@settings(max_examples=25, deadline=None)
@given(machine_specs())
def test_generated_models_always_validate(specs):
    model = load_icelab_model(specs)
    report = validate_model(model)
    assert report.ok, str(report)[:500]


@settings(max_examples=25, deadline=None)
@given(machine_specs(), st.integers(5, 200))
def test_generation_invariants(specs, capacity):
    model = load_icelab_model(specs)
    result = generate_configuration(
        model, options=PipelineOptions(capacity=capacity))
    total_vars = sum(s.variable_count for s in specs)
    total_svcs = sum(s.service_count for s in specs)

    # every machine got a config; every workcell with machines a server
    assert len(result.machine_configs) == len(specs)
    assert set(result.server_configs) == {s.workcell for s in specs}

    # every variable subscribed exactly once across all clients
    subscriptions = [s["node_id"] for c in result.client_configs
                     for m in c["machines"] for s in m["subscriptions"]]
    assert len(subscriptions) == total_vars
    assert len(set(subscriptions)) == total_vars

    # every service served exactly once
    methods = [m["node_id"] for c in result.client_configs
               for machine in c["machines"] for m in machine["methods"]]
    assert len(methods) == len(set(methods)) == total_svcs

    # manifests parse and reference existing config maps
    from repro.yamlgen import parse_documents
    config_map_names = set()
    deployment_mounts = []
    for text in result.manifests.values():
        for document in parse_documents(text):
            if document["kind"] == "ConfigMap":
                config_map_names.add(document["metadata"]["name"])
            elif document["kind"] == "Deployment":
                volumes = document["spec"]["template"]["spec"]["volumes"]
                for volume in volumes:
                    deployment_mounts.append(
                        volume["configMap"]["name"])
    assert set(deployment_mounts) <= config_map_names


@settings(max_examples=15, deadline=None)
@given(machine_specs())
def test_port_identity_for_any_factory(specs):
    """ports = 2 x (variables + services) — the Table-I structural law."""
    from repro.diagrams import measure_connections
    model = load_icelab_model(specs)
    for spec in specs:
        figure = measure_connections(model, spec.name,
                                     f"{spec.name}DriverInstance")
        assert figure.total_ports == 2 * spec.point_count
        assert figure.balanced


def test_port_identity_for_reserved_machine_names():
    """Machines named like ISA95 `ref part` members still measure.

    `ISA95::Machine` declares `ref part driver : Driver` and
    `Workcell` declares `ref part machines : Machine [*]`; a machine
    whose name collides with those placeholders must still resolve to
    its concrete workcell part (Hypothesis-discovered regression).
    """
    _assert_port_identity(["driver", "machines"])


def test_port_identity_for_machine_names_shadowing_port_groups():
    """Machines named like port groups or driver members still measure.

    A driver instance owns a ``data`` variable group, and ports are
    grouped under ``...Services`` / ``driverMethods``; machines named
    ``data``, ``services`` or ``methods`` must neither resolve to the
    driver's part nor have every port counted as a service/method port
    (Hypothesis-discovered regression).
    """
    _assert_port_identity(["data", "services", "methods"])


def _assert_port_identity(machine_names):
    from repro.diagrams import measure_connections
    specs = [MachineSpec(
        name=name,
        display_name=name.title(),
        type_name=name.title() + "Machine",
        workcell="cell1",
        driver=DriverSpec(protocol="OPCUADriver", is_generic=True,
                          parameters={"endpoint":
                                      f"opc.tcp://10.9.{i}.1:4840"}),
        categories={"Data": [VariableSpec("v0", "Real")]},
        services=[simple_service("svc0")],
    ) for i, name in enumerate(machine_names)]
    model = load_icelab_model(specs)
    for spec in specs:
        figure = measure_connections(
            model, spec.name, f"{spec.name}DriverInstance")
        assert figure.total_ports == 2 * spec.point_count
        assert figure.balanced
