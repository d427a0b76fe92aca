"""Production scheduling: the contract of the retired slot scheduler,
held against the engine that replaced it.

SOM production jobs are scheduled by the discrete-event engine
(:class:`repro.sim.FactorySimulation`): one service per machine at a
time, each job's route in order. The broker dispatch of that schedule
lives in ``examples/production_scheduling.py`` (:func:`dispatch`); its
error narrowing is checked here too.
"""

import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (FactorySimulation, Job, JobStep, ScenarioReport,
                       ServiceTimeModel, Workload, WorkloadError, ticks)
from repro.som import OrchestrationError, ServiceLookupError

EXAMPLE = runpy.run_path(str(Path(__file__).parents[2] / "examples"
                             / "production_scheduling.py"))

#: One model time unit: the retired scheduler's default step duration.
UNIT = ticks(1.0)


def job(name, steps, durations=None):
    durations = durations or {}
    return Job(name=name, steps=tuple(
        JobStep(machine, service,
                durations.get(f"{machine}.{service}", UNIT))
        for machine, service in steps))


def run(*jobs):
    return FactorySimulation(Workload(jobs)).run()


def timeline(outcome, *, machine=None, job_name=None):
    return sorted((entry for entry in outcome.schedule
                   if machine in (None, entry.machine)
                   and job_name in (None, entry.job)),
                  key=lambda entry: entry.start)


class TestScheduleBasics:
    def test_single_process_sequential(self):
        outcome = run(job("job", [("a", "s1"), ("a", "s2"), ("b", "s3")]))
        entries = timeline(outcome, job_name="job")
        assert [e.start for e in entries] == [0, UNIT, 2 * UNIT]
        assert outcome.makespan == 3 * UNIT

    def test_independent_processes_run_in_parallel(self):
        outcome = run(job("j1", [("a", "s")] * 2),
                      job("j2", [("b", "s")] * 2))
        assert outcome.makespan == 2 * UNIT  # no shared machine

    def test_shared_machine_serializes(self):
        outcome = run(job("j1", [("mill", "s")]),
                      job("j2", [("mill", "s")]))
        assert outcome.makespan == 2 * UNIT
        first, second = timeline(outcome, machine="mill")
        assert first.end <= second.start

    def test_durations_respected(self):
        outcome = run(job("job", [("mill", "long"), ("mill", "short")],
                          durations={"mill.long": 5 * UNIT}))
        assert outcome.makespan == 6 * UNIT

    def test_empty_input(self):
        assert FactorySimulation(Workload([])).run().makespan == 0

    def test_duplicate_process_names_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate job names"):
            Workload([job("x", [("a", "s")]), job("x", [("a", "s")])])

    def test_deterministic(self):
        jobs = [job(f"j{i}", [("m1", "a"), ("m2", "b")]) for i in range(4)]
        first, second = run(*jobs), run(*jobs)
        assert [(e.job, e.start) for e in first.schedule] == \
            [(e.job, e.start) for e in second.schedule]

    def test_render(self):
        outcome = run(job("job", [("mill", "go")]))
        text = ScenarioReport.from_outcome(
            outcome, scenario="book", description="", seed=0).render()
        assert "makespan 1" in text
        assert "mill" in text


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.lists(st.tuples(st.sampled_from(["m1", "m2", "m3"]),
                       st.sampled_from(["s1", "s2"])),
             min_size=1, max_size=5),
    min_size=1, max_size=5))
def test_schedule_invariants(step_lists):
    jobs = [job(f"p{i}", steps) for i, steps in enumerate(step_lists)]
    outcome = run(*jobs)
    # every step scheduled exactly once
    assert sorted((e.job, e.step_index) for e in outcome.schedule) == \
        sorted((j.name, index) for j in jobs
               for index in range(len(j.steps)))
    # no machine overlap, and every route runs in order
    for machine in {e.machine for e in outcome.schedule}:
        slots = timeline(outcome, machine=machine)
        assert all(a.end <= b.start for a, b in zip(slots, slots[1:]))
    for j in jobs:
        steps = sorted(timeline(outcome, job_name=j.name),
                       key=lambda entry: entry.step_index)
        assert all(a.end <= b.start for a, b in zip(steps, steps[1:]))
    # makespan bounded: between the critical path and the serial total
    total = sum(len(steps) for steps in step_lists)
    longest = max(len(steps) for steps in step_lists)
    per_machine = {}
    for steps in step_lists:
        for machine, _ in steps:
            per_machine[machine] = per_machine.get(machine, 0) + 1
    bottleneck = max(per_machine.values())
    assert max(longest, bottleneck) * UNIT <= outcome.makespan \
        <= total * UNIT


class TestExecutionOnIceLab:
    @pytest.fixture(scope="class")
    def deployed(self):
        from repro.icelab import run_icelab
        result = run_icelab(smoke_steps=2, seed=21)
        yield result
        result.shutdown()

    def test_batch_of_jobs_executes(self, deployed):
        recipes = {
            "mill-A": [("warehouse", "fetch_tray", 1),
                       ("kairos1", "dock"),
                       ("emco", "start_program")],
            "mill-B": [("warehouse", "fetch_tray", 2),
                       ("kairos2", "dock"),
                       ("emco", "start_program")],
            "inspect": [("qcPc", "inspect", "unit"),
                        ("conveyor", "route_pallet", 1, 3)],
        }
        workload = EXAMPLE["make_workload"](
            ServiceTimeModel(deployed.topology), recipes)
        outcome = FactorySimulation(workload).run()
        executed, failed = EXAMPLE["dispatch"](
            outcome.schedule, deployed.orchestrator, recipes)
        assert (executed, failed) == (8, 0)
        # warehouse and emco are contended across the two mill jobs
        first, second = timeline(outcome, machine="warehouse")
        assert first.end <= second.start


class TestExecuteErrorNarrowing:
    """dispatch() counts typed service failures; real bugs propagate."""

    RECIPES = {"job": [("mill", "cut")]}

    def _dispatch(self, orchestrator):
        outcome = run(job("job", [("mill", "cut")]))
        return EXAMPLE["dispatch"](outcome.schedule, orchestrator,
                                   self.RECIPES)

    def test_orchestration_error_counts_as_failed(self):
        class Failing:
            def invoke(self, *_args):
                raise OrchestrationError("unreachable")
        assert self._dispatch(Failing()) == (0, 1)

    def test_service_lookup_error_counts_as_failed(self):
        class Unknown:
            def invoke(self, *_args):
                raise ServiceLookupError("mill.cut")
        assert self._dispatch(Unknown()) == (0, 1)

    def test_memory_error_propagates(self):
        class Leaky:
            def invoke(self, *_args):
                raise MemoryError()
        with pytest.raises(MemoryError):
            self._dispatch(Leaky())

    def test_keyboard_interrupt_propagates(self):
        class Interrupted:
            def invoke(self, *_args):
                raise KeyboardInterrupt()
        with pytest.raises(KeyboardInterrupt):
            self._dispatch(Interrupted())

    def test_harness_bugs_propagate(self):
        class Drifted:
            def invoke(self, *_args):
                raise TypeError("invoke() signature changed")
        with pytest.raises(TypeError):
            self._dispatch(Drifted())
