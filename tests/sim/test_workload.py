"""Workload model: canonicalization, service times, seeded generation."""

import pytest

from repro.sim import (Job, JobStep, ServiceTimeModel, Workload,
                       WorkloadError, generate_workload,
                       validate_workload)


def job(name, machine="m1", release=0, due=100, duration=10):
    return Job(name=name, steps=(JobStep(machine, "s", duration),),
               release=release, due=due)


class TestWorkload:
    def test_jobs_canonically_sorted(self):
        w = Workload([job("b", release=5), job("a", release=5),
                      job("c", release=1)])
        assert [j.name for j in w.jobs] == ["c", "a", "b"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            Workload([job("a"), job("a")])

    def test_machines_derived_from_steps(self):
        w = Workload([job("a", machine="mill"), job("b", machine="arm")])
        assert w.machines == ("arm", "mill")

    def test_unknown_machine_rejected(self):
        with pytest.raises(WorkloadError, match="unknown machines"):
            Workload([job("a", machine="ghost")], machines=("mill",))

    def test_empty_route_rejected(self):
        with pytest.raises(WorkloadError, match="no steps"):
            Job(name="x", steps=())

    def test_extended_merges_jobs(self):
        w = Workload([job("a")], machines=("m1",))
        extended = w.extended([job("b")])
        assert len(extended) == 2
        assert len(w) == 1  # original untouched


class TestServiceTimeModel:
    def test_durations_deterministic_and_positive(self, topology):
        times = ServiceTimeModel(topology)
        for machine in topology.machines:
            for service in machine.services:
                first = times.duration(machine.name, service.name)
                assert first >= 1
                assert times.duration(machine.name, service.name) == first

    def test_richer_services_take_longer(self, topology):
        times = ServiceTimeModel(topology)
        by_arity = {}
        for machine in topology.machines:
            for service in machine.services:
                arity = 2 * len(service.inputs) + len(service.outputs)
                by_arity.setdefault(machine.name, {})[service.name] = (
                    arity, times.duration(machine.name, service.name))
        for services in by_arity.values():
            ranked = sorted(services.values())
            for (arity_a, dur_a), (arity_b, dur_b) in zip(ranked,
                                                          ranked[1:]):
                if arity_a < arity_b:
                    assert dur_a <= dur_b

    def test_overrides_pin_durations(self, topology):
        machine = topology.machines[0]
        key = f"{machine.name}.{machine.services[0].name}" \
            if machine.services else f"{machine.name}.process"
        times = ServiceTimeModel(topology, overrides={key: 7.5})
        name = key.split(".", 1)[1]
        assert times.duration(machine.name, name) == 750

    def test_unknown_machine_raises(self, topology):
        with pytest.raises(WorkloadError, match="no machine"):
            ServiceTimeModel(topology).duration("ghost", "s")


class TestGenerateWorkload:
    def test_generated_workload_is_valid(self, topology):
        w = generate_workload(topology, seed=7)
        assert validate_workload(w, topology) == []
        assert len(w) == max(4, 2 * len(topology.workcells))
        for j in w.jobs:
            assert 2 <= len(j.steps) <= 4
            assert j.due > j.release

    def test_same_seed_same_book(self, topology):
        first = generate_workload(topology, seed=11)
        second = generate_workload(topology, seed=11)
        assert first.to_dict() == second.to_dict()

    def test_different_seeds_differ(self, topology):
        assert generate_workload(topology, seed=1).to_dict() != \
            generate_workload(topology, seed=2).to_dict()

    def test_routes_follow_topology_order(self, topology):
        order = {m.name: i for i, m in enumerate(topology.machines)}
        w = generate_workload(topology, seed=3)
        for j in w.jobs:
            positions = [order[s.machine] for s in j.steps]
            assert positions == sorted(positions)
            assert len(set(positions)) == len(positions)

    def test_streams_decorrelate_at_same_seed(self, topology):
        base = generate_workload(topology, seed=7, jobs=4)
        rush = generate_workload(topology, seed=7, jobs=4, stream="rush",
                                 name_prefix="rush")
        base_routes = [[s.to_dict() for s in j.steps] for j in base.jobs]
        rush_routes = [[s.to_dict() for s in j.steps] for j in rush.jobs]
        assert base_routes != rush_routes

    def test_empty_topology_rejected(self):
        from repro.isa95.levels import FactoryTopology
        with pytest.raises(WorkloadError, match="no machines"):
            generate_workload(FactoryTopology(), seed=0)

    @pytest.mark.parametrize("jobs", [0, -1, True])
    def test_nonpositive_job_count_rejected(self, topology, jobs):
        with pytest.raises(WorkloadError, match="jobs must be"):
            generate_workload(topology, seed=0, jobs=jobs)

    def test_suite_names_the_base_jobs_option(self, topology):
        from repro.sim import simulate_suite
        with pytest.raises(WorkloadError, match="base_jobs"):
            simulate_suite(topology, seed=0, base_jobs=0)

    def test_validate_reports_ghost_references(self, topology):
        bad = Workload(
            [Job(name="x", steps=(JobStep("ghost", "s", 5),), due=10)])
        problems = validate_workload(bad, topology)
        assert problems and "unknown machine" in problems[0]
