"""Simulator-backed plan validation catches real violations."""

import pytest

from repro.icelab import icelab_sources
from repro.isa95 import extract_topology
from repro.machines import spec_from_machine_info
from repro.planning import (FactoryDomain, build_simulators, build_task,
                            solve, validate_plan)
from repro.planning import validate as validate_module
from repro.sim import generate_workload
from repro.sysml import load_model


@pytest.fixture(scope="module")
def topology():
    return extract_topology(load_model(*icelab_sources()))


@pytest.fixture(scope="module")
def task(topology):
    domain = FactoryDomain(topology)
    return build_task(domain, generate_workload(topology, seed=7, jobs=4))


@pytest.fixture(scope="module")
def plan(task):
    return solve(task).actions


class TestValidPlans:
    def test_planner_output_replays_cleanly(self, topology, task, plan):
        outcome = validate_plan(task, plan, build_simulators(topology))
        assert outcome.ok, outcome.problems
        assert outcome.goal_reached
        assert outcome.steps == len(plan)
        # every kept step completed exactly one service invocation
        assert outcome.service_calls \
            == sum(len(route.steps) for route in task.parts)
        assert outcome.moves \
            == outcome.steps - 2 * outcome.service_calls

    def test_roundtrips_through_dict(self, topology, task, plan):
        outcome = validate_plan(task, plan, build_simulators(topology))
        assert type(outcome).from_dict(outcome.to_dict()).to_dict() \
            == outcome.to_dict()


class TestViolationDetection:
    def test_truncated_plan_reports_unmet_goals(self, topology, task,
                                                plan):
        outcome = validate_plan(task, plan[:-1],
                                build_simulators(topology))
        assert not outcome.ok
        assert not outcome.goal_reached
        assert any("unmet goal" in problem
                   for problem in outcome.problems)

    def test_skipped_action_breaks_preconditions(self, topology, task,
                                                 plan):
        # drop the first start: its complete then fires unprepared
        first_start = next(i for i, action in enumerate(plan)
                           if action.kind == "start")
        tampered = plan[:first_start] + plan[first_start + 1:]
        outcome = validate_plan(task, tampered,
                                build_simulators(topology))
        assert not outcome.ok
        assert any("precondition" in problem
                   for problem in outcome.problems)

    def test_double_start_reports_busy_machine(self, topology, task,
                                               plan):
        first_start = next(action for action in plan
                           if action.kind == "start")
        tampered = (first_start,) + plan
        outcome = validate_plan(task, tampered,
                                build_simulators(topology))
        assert any("already executing" in problem
                   for problem in outcome.problems)

    def test_missing_simulator_reported(self, topology, task, plan):
        simulators = build_simulators(topology)
        victim = next(action.machine for action in plan
                      if action.kind == "complete")
        del simulators[victim]
        outcome = validate_plan(task, plan, simulators)
        assert any("no simulator" in problem
                   for problem in outcome.problems)


class TestOnDemandSimulators:
    @pytest.fixture
    def specs_built(self, monkeypatch):
        built = []

        def recording(machine):
            built.append(machine.name)
            return spec_from_machine_info(machine)

        monkeypatch.setattr(validate_module, "spec_from_machine_info",
                            recording)
        return built

    def test_only_machines_that_complete_steps_get_simulators(
            self, topology, task, plan, specs_built):
        simulators = build_simulators(topology)
        assert specs_built == []
        assert len(simulators) == len(topology.machines)
        assert validate_plan(task, plan, simulators).ok
        completed = {action.machine for action in plan
                     if action.kind == "complete"}
        assert sorted(specs_built) == sorted(completed)
        assert len(completed) < len(topology.machines)

    def test_simulator_is_built_once_per_machine(self, topology, plan,
                                                 specs_built):
        simulators = build_simulators(topology)
        machine = next(action.machine for action in plan
                       if action.kind == "complete")
        assert simulators[machine] is simulators[machine]
        assert specs_built == [machine]
        assert machine in simulators and "no-such-machine" not in simulators
