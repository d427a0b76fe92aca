"""ISA-95 topology extraction tests on a hand-written mini factory."""

import pytest

from repro.isa95 import (ISA95_LIBRARY_SOURCE, TopologyError,
                         extract_topology, validate_topology)
from repro.sysml import load_model

MINI_FACTORY = ISA95_LIBRARY_SOURCE + """
package MiniLib {
    import ISA95::*;
    part def MiniDriver :> MachineDriver {
        part def MiniParameters :> Driver::DriverParameters {
            attribute ip : String;
            attribute ip_port : Integer;
        }
        part def MiniVariables :> Driver::DriverVariables {
            port def MiniVar {
                in attribute value : Real;
                attribute identifier : String;
            }
        }
        part def MiniMethods :> Driver::DriverMethods {
            port def MiniMethod {
                attribute description : String;
                out action operation { out ok : Boolean; }
            }
        }
    }
    part def MiniMill :> Machine {
        part def MiniData :> Machine::MachineData {
            part def Axes;
        }
        part def MiniServices :> Machine::MachineServices;
    }
}

part factory : ISA95::Topology {
    part acme : ISA95::Topology::Enterprise {
        part plant1 : ISA95::Topology::Enterprise::Site {
            part hall : ISA95::Topology::Enterprise::Site::Area {
                part line1 :
                    ISA95::Topology::Enterprise::Site::Area::ProductionLine {
                    part wc1 : ISA95::Topology::Enterprise::Site::Area::ProductionLine::Workcell {
                        part mill : MiniLib::MiniMill {
                            ref part millDriver : MiniLib::MiniDriver;
                            part data : MiniData {
                                part axes : Axes {
                                    attribute posX : Real;
                                    attribute posY : Real;
                                }
                                attribute mode : String;
                            }
                            part services : MiniServices {
                                action isReady { out ready : Boolean; }
                                action start {
                                    in program : String;
                                    out ok : Boolean;
                                }
                            }
                        }
                    }
                    part wc2 : ISA95::Topology::Enterprise::Site::Area::ProductionLine::Workcell {
                    }
                }
            }
        }
    }
}

part millDriver : MiniLib::MiniDriver {
    part params : MiniParameters {
        :>> ip = '10.0.0.5';
        :>> ip_port = 5557;
    }
    part vars : MiniVariables {
        attribute posX : Real;
        port posX_port : MiniVar;
        bind posX_port.value = posX;
    }
    part methods : MiniMethods {
        port is_ready_port : MiniMethod;
    }
}
"""


@pytest.fixture(scope="module")
def topology():
    return extract_topology(load_model(MINI_FACTORY))


class TestHierarchy:
    def test_levels(self, topology):
        assert topology.enterprise == "acme"
        assert topology.site == "plant1"
        assert topology.area == "hall"
        assert topology.production_lines == ["line1"]

    def test_workcells(self, topology):
        assert [w.name for w in topology.workcells] == ["wc1", "wc2"]
        assert topology.workcell("wc1").production_line == "line1"

    def test_machine_placement(self, topology):
        assert [m.name for m in topology.workcell("wc1").machines] == ["mill"]
        assert topology.workcell("wc2").machines == []

    def test_machine_accessors(self, topology):
        machine = topology.machine("mill")
        assert machine.type_name == "MiniMill"
        assert machine.workcell == "wc1"
        with pytest.raises(KeyError):
            topology.machine("ghost")
        with pytest.raises(KeyError):
            topology.workcell("ghost")


class TestMachineExtraction:
    def test_variables_with_categories(self, topology):
        machine = topology.machine("mill")
        names = {v.name: v for v in machine.variables}
        assert set(names) == {"posX", "posY", "mode"}
        assert names["posX"].category == "axes"
        assert names["mode"].category == ""
        assert names["posX"].data_type == "Real"
        assert names["mode"].data_type == "String"

    def test_services_with_arguments(self, topology):
        machine = topology.machine("mill")
        services = {s.name: s for s in machine.services}
        assert set(services) == {"isReady", "start"}
        start = services["start"]
        assert [a.name for a in start.inputs] == ["program"]
        assert [a.name for a in start.outputs] == ["ok"]
        assert start.inputs[0].data_type == "String"

    def test_point_count(self, topology):
        assert topology.machine("mill").point_count == 5

    def test_summary(self, topology):
        summary = topology.summary()
        assert summary == {"workcells": 2, "machines": 1,
                           "variables": 3, "services": 2}


class TestDriverExtraction:
    def test_driver_resolved(self, topology):
        driver = topology.machine("mill").driver
        assert driver is not None
        assert driver.protocol == "MiniDriver"
        assert not driver.is_generic

    def test_driver_parameters(self, topology):
        driver = topology.machine("mill").driver
        assert driver.parameters == {"ip": "10.0.0.5", "ip_port": 5557}

    def test_driver_point_counts(self, topology):
        driver = topology.machine("mill").driver
        assert driver.variable_count == 1  # one port in vars
        assert driver.method_count == 1


class TestErrors:
    def test_missing_library(self):
        model = load_model("part def Lonely;")
        with pytest.raises(TopologyError, match="ISA95 base library"):
            extract_topology(model)

    def test_no_topology_root(self):
        model = load_model(ISA95_LIBRARY_SOURCE)
        with pytest.raises(TopologyError, match="no top-level part"):
            extract_topology(model)

    def test_multiple_roots_rejected(self):
        model = load_model(ISA95_LIBRARY_SOURCE + """
            part f1 : ISA95::Topology {
                part wcA : ISA95::Topology::Enterprise::Site::Area::ProductionLine::Workcell;
            }
            part f2 : ISA95::Topology {
                part wcB : ISA95::Topology::Enterprise::Site::Area::ProductionLine::Workcell;
            }
        """)
        with pytest.raises(TopologyError, match="multiple topology roots"):
            extract_topology(model)

    def test_empty_topology_rejected(self):
        model = load_model(ISA95_LIBRARY_SOURCE +
                           "part f : ISA95::Topology { }")
        with pytest.raises(TopologyError, match="no\\s+workcells"):
            extract_topology(model)


class TestTopologyValidation:
    def test_mini_factory_reports(self, topology):
        report = validate_topology(topology)
        # wc2 is empty -> warning; mill driver is fine
        assert report.ok
        assert any(d.rule == "empty-workcell" for d in report.warnings)

    def test_missing_driver_flagged(self):
        from repro.isa95.levels import (FactoryTopology, MachineInfo,
                                        WorkcellInfo)
        topo = FactoryTopology(enterprise="e", site="s", area="a",
                               production_lines=["l"])
        wc = WorkcellInfo(name="wc", production_line="l")
        wc.machines.append(MachineInfo(name="m", type_name="T",
                                       workcell="wc"))
        topo.workcells.append(wc)
        report = validate_topology(topo)
        assert any(d.rule == "missing-driver" for d in report.errors)

    def test_duplicate_machine_names_flagged(self):
        from repro.isa95.levels import (DriverInfo, FactoryTopology,
                                        MachineInfo, WorkcellInfo)
        topo = FactoryTopology(production_lines=["l"])
        wc = WorkcellInfo(name="wc", production_line="l")
        for _ in range(2):
            wc.machines.append(MachineInfo(
                name="same", type_name="T", workcell="wc",
                driver=DriverInfo(name="d", protocol="OPCUADriver",
                                  is_generic=True,
                                  parameters={"endpoint": "opc.tcp://x:1"})))
        topo.workcells.append(wc)
        report = validate_topology(topo)
        assert any(d.rule == "duplicate-name" for d in report.errors)

    def test_missing_parameter_warned(self):
        from repro.isa95.levels import (DriverInfo, FactoryTopology,
                                        MachineInfo, WorkcellInfo)
        topo = FactoryTopology(production_lines=["l"])
        wc = WorkcellInfo(name="wc", production_line="l")
        wc.machines.append(MachineInfo(
            name="m", type_name="T", workcell="wc",
            driver=DriverInfo(name="d", protocol="OPCUADriver",
                              is_generic=True)))
        topo.workcells.append(wc)
        report = validate_topology(topo)
        assert any(d.rule == "missing-driver-parameter"
                   for d in report.warnings)


class TestExtractMachineAt:
    """Standalone re-elaboration of one machine usage must reproduce
    exactly what whole-model extraction produces — the incremental
    engine splices its output into a retained topology."""

    def test_equivalent_to_full_extraction(self):
        from dataclasses import asdict

        from repro.isa95.topology import TopologyExtractor
        from repro.sysml.depgraph import find_by_path

        model = load_model(MINI_FACTORY)
        full = extract_topology(model).machine("mill")
        usage = find_by_path(model, full.node_path)
        alone = TopologyExtractor(model).extract_machine_at(
            usage, full.workcell)
        assert asdict(alone) == asdict(full)

    def test_node_paths_populated(self, topology):
        machine = topology.machine("mill")
        assert machine.node_path.endswith("::mill")
        assert machine.driver.node_path
