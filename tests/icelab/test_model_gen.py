"""ICE-lab model generator tests: the generated model is a valid SysML v2
model that reproduces the paper's structure."""

import pytest

from repro.icelab import generate_library, icelab_model, icelab_model_text
from repro.machines.specs import EMCO_SPEC, ICE_LAB_SPECS
from repro.sysml import validate_model
from repro.sysml.elements import BindingConnector, Connector, PortUsage


@pytest.fixture(scope="module")
def model():
    return icelab_model()


@pytest.fixture(scope="module")
def topology(model):
    from repro.isa95 import extract_topology
    return extract_topology(model)


class TestGeneratedModelWellFormed:
    def test_model_validates_without_errors(self, model):
        report = validate_model(model)
        assert report.ok, str(report)[:2000]

    def test_model_text_is_parseable_prose(self):
        text = icelab_model_text()
        assert "part def EMCODriver :> MachineDriver" in text
        assert ":>> ip = '10.197.12.11';" in text
        assert "part ICETopology : ISA95::Topology" in text

    def test_every_machine_library_generated(self, model):
        for spec in ICE_LAB_SPECS:
            package = model.find(f"{spec.type_name}Lib")
            assert package is not None, spec.type_name

    def test_driver_specializes_correct_base(self, model):
        emco_driver = model.find("EMCOMillingMachineLib::EMCODriver")
        machine_driver = model.find("ISA95::MachineDriver")
        assert emco_driver.conforms_to(machine_driver)
        spea_driver = model.find("SPEATesterLib::OPCUADriver")
        generic = model.find("ISA95::GenericDriver")
        assert spea_driver.conforms_to(generic)

    def test_machine_ports_are_conjugated(self, model):
        emco = topology_machine_usage(model, "emco")
        ports = [e for e in emco.descendants() if isinstance(e, PortUsage)]
        assert ports and all(p.conjugated for p in ports)

    def test_driver_ports_not_conjugated(self, model):
        driver = next(e for e in model.owned_elements
                      if e.name == "emcoDriverInstance")
        ports = [e for e in driver.descendants()
                 if isinstance(e, PortUsage)]
        assert ports and not any(p.conjugated for p in ports)

    def test_binds_resolve(self, model):
        binds = [e for e in model.all_elements()
                 if isinstance(e, BindingConnector)]
        # one per variable per side: 2 x 498
        assert len(binds) == 996
        assert all(b.left is not None and b.right is not None
                   for b in binds)

    def test_connects_resolve(self, model):
        connectors = [e for e in model.all_elements()
                      if isinstance(e, Connector)]
        # one per variable + one per service (machine side)
        assert len(connectors) == 498 + 66
        assert all(c.source is not None and c.target is not None
                   for c in connectors)


class TestTopologyMatchesTable1:
    def test_counts(self, topology):
        assert topology.summary() == {
            "workcells": 6, "machines": 10,
            "variables": 498, "services": 66}

    def test_hierarchy_names(self, topology):
        assert topology.enterprise == "UniVR"
        assert topology.site == "Verona"
        assert topology.area == "ICELab"
        assert topology.production_lines == ["ICEProductionLine"]

    @pytest.mark.parametrize("machine,variables,services", [
        ("spea", 3, 5), ("emco", 34, 19), ("ur5", 99, 4),
        ("siemensPlc", 26, 8), ("fiam", 12, 3), ("qcPc", 13, 2),
        ("warehouse", 5, 3), ("conveyor", 296, 10),
        ("kairos1", 5, 6), ("kairos2", 5, 6),
    ])
    def test_per_machine_counts(self, topology, machine, variables,
                                services):
        info = topology.machine(machine)
        assert len(info.variables) == variables
        assert len(info.services) == services

    def test_kairos_instances_have_distinct_endpoints(self, topology):
        e1 = topology.machine("kairos1").driver.parameters["endpoint"]
        e2 = topology.machine("kairos2").driver.parameters["endpoint"]
        assert e1 != e2

    def test_emco_driver_parameters(self, topology):
        params = topology.machine("emco").driver.parameters
        assert params["ip"] == "10.197.12.11"
        assert params["ip_port"] == 5557


class TestLibraryGeneration:
    def test_single_machine_library_loads_standalone(self):
        from repro.isa95 import ISA95_LIBRARY_SOURCE
        from repro.sysml import load_model
        source = ISA95_LIBRARY_SOURCE + generate_library(EMCO_SPEC)
        model = load_model(source)
        assert model.find("EMCOMillingMachineLib::EMCODriver") is not None
        assert validate_model(model).ok

    def test_categories_become_part_defs(self):
        text = generate_library(EMCO_SPEC)
        assert "part def AxesPositionsData;" in text
        assert "part def SystemStatusData;" in text


def topology_machine_usage(model, name):
    from repro.sysml.elements import PartUsage
    return next(e for e in model.all_elements()
                if isinstance(e, PartUsage) and e.name == name)
