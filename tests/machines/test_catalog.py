"""Machine catalog and ICE-lab spec tests (Table I ground truth)."""

import pytest

from repro.isa95.levels import VariableSpec
from repro.machines import (DriverSpec, ICE_LAB_SPECS, MachineSpec,
                            simple_service)

#: (name, workcell, variables, services) from Table I of the paper.
TABLE_I_ROWS = [
    ("spea", "workCell01", 3, 5),
    ("emco", "workCell02", 34, 19),
    ("ur5", "workCell02", 99, 4),
    ("siemensPlc", "workCell03", 26, 8),
    ("fiam", "workCell03", 12, 3),
    ("qcPc", "workCell04", 13, 2),
    ("warehouse", "workCell05", 5, 3),
    ("conveyor", "workCell06", 296, 10),
    ("kairos1", "workCell06", 5, 6),
    ("kairos2", "workCell06", 5, 6),
]


class TestIceLabSpecs:
    def test_ten_machines(self):
        assert len(ICE_LAB_SPECS) == 10

    @pytest.mark.parametrize("name,workcell,variables,services",
                             TABLE_I_ROWS)
    def test_counts_match_table1(self, name, workcell, variables, services):
        spec = next(s for s in ICE_LAB_SPECS if s.name == name)
        assert spec.workcell == workcell
        assert spec.variable_count == variables
        assert spec.service_count == services

    def test_total_points(self):
        total = sum(s.point_count for s in ICE_LAB_SPECS)
        assert total == 564  # 498 variables + 66 services


    def test_six_workcells(self):
        assert len({s.workcell for s in ICE_LAB_SPECS}) == 6

    def test_driver_kinds(self):
        proprietary = {s.name for s in ICE_LAB_SPECS
                       if not s.driver.is_generic}
        assert proprietary == {"emco", "ur5"}

    def test_opcua_endpoints_unique(self):
        endpoints = [s.driver.parameters["endpoint"]
                     for s in ICE_LAB_SPECS if s.driver.is_generic]
        assert len(endpoints) == len(set(endpoints))

    def test_variable_names_unique_per_machine(self):
        for spec in ICE_LAB_SPECS:
            names = [v.name for v in spec.variables]
            assert len(names) == len(set(names)), spec.name

    def test_variables_carry_categories(self):
        emco = next(s for s in ICE_LAB_SPECS if s.name == "emco")
        categories = {v.category for v in emco.variables}
        assert "AxesPositions" in categories
        assert "SystemStatus" in categories


class TestCatalog:
    """The ICE-lab catalog as a whole (Table I's totals row)."""

    def test_by_workcell(self):
        by_workcell = {}
        for spec in ICE_LAB_SPECS:
            by_workcell.setdefault(spec.workcell, []).append(spec.name)
        expected = {}
        for name, workcell, _, _ in TABLE_I_ROWS:
            expected.setdefault(workcell, []).append(name)
        assert by_workcell == expected

    def test_totals(self):
        assert len(ICE_LAB_SPECS) == 10
        assert sum(s.variable_count for s in ICE_LAB_SPECS) == 498
        assert sum(s.service_count for s in ICE_LAB_SPECS) == 66
        assert sum(s.point_count for s in ICE_LAB_SPECS) == 564


class TestSpecValidation:
    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError, match="duplicate variable"):
            MachineSpec(
                name="m", display_name="m", type_name="T", workcell="wc",
                driver=DriverSpec(protocol="OPCUADriver"),
                categories={"a": [VariableSpec("x")],
                            "b": [VariableSpec("x")]})

    def test_duplicate_services_rejected(self):
        with pytest.raises(ValueError, match="duplicate service"):
            MachineSpec(
                name="m", display_name="m", type_name="T", workcell="wc",
                driver=DriverSpec(protocol="OPCUADriver"),
                services=[simple_service("go"), simple_service("go")])

    def test_category_backfilled_on_variables(self):
        spec = MachineSpec(
            name="m", display_name="m", type_name="T", workcell="wc",
            driver=DriverSpec(protocol="OPCUADriver"),
            categories={"Axes": [VariableSpec("x")]})
        assert spec.variables[0].category == "Axes"
