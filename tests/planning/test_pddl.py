"""PDDL emission: symbol mangling, golden files, byte determinism."""

from pathlib import Path

import pytest

from repro.icelab import icelab_sources
from repro.isa95 import extract_topology
from repro.planning import (FactoryDomain, PlanningError, PlanningOptions,
                            SymbolTable, build_task, emit_domain,
                            emit_problem, plan_operations)
from repro.sim import generate_workload
from repro.sysml import load_model

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def topology():
    return extract_topology(load_model(*icelab_sources()))


class TestSymbolTable:
    def test_simple_names_lowercase(self):
        table = SymbolTable("m")
        assert table.add("QcPc") == "qcpc"
        assert table.add("work Cell.01") == "work-cell-01"

    def test_hostile_names_stay_injective(self):
        table = SymbolTable("m")
        first = table.add('mill "Ω" one')
        second = table.add("mill § one")
        third = table.add("MILL ONE")
        assert len({first, second, third}) == 3
        assert first == "mill-one"
        assert {second, third} == {"mill-one-2", "mill-one-3"}

    def test_unusable_names_get_prefix(self):
        table = SymbolTable("m")
        assert table.add("§§§") == "m"
        assert table.add("42") == "m-42"

    def test_idempotent_per_raw_name(self):
        table = SymbolTable("m")
        assert table.add("emco") == table.add("emco") == table["emco"]


class TestGoldenEmission:
    """The committed ICE-lab seed-7 artifacts pin the byte format.

    Regenerate deliberately with:
    ``repro plan --seed 7 --out tests/planning/golden``
    """

    def _result(self, topology):
        return plan_operations(topology,
                               PlanningOptions(seed=7, problems=1))

    def test_domain_matches_golden(self, topology):
        result = self._result(topology)
        assert result.domain_text == (GOLDEN / "domain.pddl").read_text()

    def test_problem_matches_golden(self, topology):
        result = self._result(topology)
        assert result.problems[0].problem_text \
            == (GOLDEN / "problem-000.pddl").read_text()

    def test_plan_matches_golden(self, topology):
        result = self._result(topology)
        assert result.problems[0].plan_text \
            == (GOLDEN / "problem-000.plan").read_text()


class TestEmissionDeterminism:
    def test_domain_text_stable_across_rebuilds(self, topology):
        first = emit_domain(FactoryDomain(topology))
        second = emit_domain(FactoryDomain(topology))
        assert first == second

    def test_problem_text_stable_across_rebuilds(self, topology):
        domain = FactoryDomain(topology)
        workload = generate_workload(topology, seed=3)
        texts = [emit_problem(build_task(domain, workload), name="p")
                 for _ in range(2)]
        assert texts[0] == texts[1]

    def test_domain_structure(self, topology):
        text = emit_domain(FactoryDomain(topology))
        assert text.startswith(";; Generated by repro.planning")
        assert "(:requirements :strips :typing)" in text
        assert "(:types machine part location step - object)" in text
        # every inventory service grounds into a start/complete pair
        for service in topology.service_inventory():
            domain = FactoryDomain(topology)
            symbol = domain.service_symbols[service]
            assert f"(:action start-{symbol}" in text
            assert f"(:action complete-{symbol}" in text

    def test_problem_structure(self, topology):
        domain = FactoryDomain(topology)
        task = build_task(domain, generate_workload(topology, seed=3))
        text = emit_problem(task, name="p0")
        assert "(define (problem p0)" in text
        assert "(:domain factory-ops)" in text
        assert text.count("(linked ") == 2 * (len(domain.locations) - 1)
        for route in task.parts:
            assert f"(current {route.symbol} " in text
            assert f"(free {route.symbol})" in text

    def test_process_pool_matches_serial(self, topology):
        # the fan-out payload must stay picklable: the process pool
        # once crashed on a closure that module-level _solve_one replaces
        options = PlanningOptions(seed=3, problems=2, orders=2)
        serial = plan_operations(topology, options)
        forked = plan_operations(topology, options.replace(jobs=2))
        assert forked.files() == serial.files()
        assert forked.digest == serial.digest


class TestPlanningOptions:
    @pytest.mark.parametrize("field,value", [
        ("problems", 0), ("problems", -1), ("problems", True),
        ("problems", 1.0), ("orders", 0), ("orders", -3),
        ("orders", True), ("orders", "8"), ("max_expansions", 0),
        ("max_expansions", False), ("jobs", 0), ("jobs", -2),
        ("jobs", True), ("jobs", 2.0)])
    def test_rejects_nonsense_at_construction(self, field, value):
        with pytest.raises(PlanningError, match=field):
            PlanningOptions(**{field: value})

    def test_replace_is_checked_too(self):
        with pytest.raises(PlanningError, match="problems"):
            PlanningOptions().replace(problems=0)

    def test_accepts_the_smallest_values(self):
        options = PlanningOptions(problems=1, orders=1, max_expansions=1,
                                  jobs=1)
        assert options.orders == 1
        assert PlanningOptions(orders=None).orders is None
