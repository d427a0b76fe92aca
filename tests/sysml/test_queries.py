"""Tests for the model metric/navigation queries used by Table I."""

from repro.sysml import (count_definition_closure, elaborate,
                         instance_counts, load_model, specializations_of,
                         usages_typed_by)
from repro.sysml.queries import instance_counts_of_tree


class TestStructuralQueries:
    def test_usages_typed_by_definition(self, emco_model):
        machine_def = emco_model.find("ISA95::Machine")
        usages = usages_typed_by(emco_model, machine_def)
        assert any(u.name == "emco" for u in usages)

    def test_usages_typed_by_respects_transitivity_flag(self, emco_model):
        machine_def = emco_model.find("ISA95::Machine")
        direct = usages_typed_by(emco_model, machine_def, transitive=False)
        assert not any(u.name == "emco" for u in direct)

    def test_specializations_of(self, emco_model):
        driver_def = emco_model.find("ISA95::Driver")
        specialized = {d.name for d in
                       specializations_of(emco_model, driver_def)}
        assert {"MachineDriver", "GenericDriver", "EMCODriver"} <= specialized


class TestInstanceCounts:
    def test_counts_for_emco_driver(self, emco_model):
        driver = emco_model.find("emcoDriver")
        counts = instance_counts(driver)
        # emcoDriver + emcoParameters/emcoVariables/emcoMethods +
        # emcoSystemStatus + emcoAxesPositions = 6 parts
        assert counts.part_instances == 6
        # 3 parameters + actualX + port internals (value, description,
        # identifier) + action out param
        assert counts.attribute_instances >= 7
        assert counts.port_instances == 2
        assert counts.binding_connectors == 1

    def test_counts_addition(self, emco_model):
        driver = emco_model.find("emcoDriver")
        counts = instance_counts(driver)
        doubled = counts + counts
        assert doubled.part_instances == 2 * counts.part_instances
        assert doubled.port_instances == 2 * counts.port_instances

    def test_counts_of_tree_matches_walk(self, emco_model):
        driver = emco_model.find("emcoDriver")
        tree = elaborate(driver)
        counts = instance_counts_of_tree(tree)
        assert counts.part_instances == tree.count(
            lambda node: node.kind == "part")


class TestDefinitionClosure:
    def test_emco_closure_counts_driver_and_machine_defs(self, emco_model):
        emco = emco_model.find(
            "ICETopology::UniVR::Verona::ICELab::ICEProductionLine"
            "::workCell02::emco")
        closure = count_definition_closure(emco)
        # EMCO + EMCOMachineData + EMCOServices + machine-side
        # AxesPositions/SystemStatus >= 5
        assert closure >= 5

    def test_closure_of_untyped_usage_is_zero(self):
        model = load_model("part lonely;")
        assert count_definition_closure(model.find("lonely")) == 0
