"""Property suite: the kernel/scheduler invariants the design note
promises.

* no machine ever processes two jobs at once;
* every released job either completes or is reported stranded;
* executed event keys are monotone (timestamps never go backwards);
* for a fixed seed/workload, report metrics are independent of the
  input order of the job list.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.sim import (FactorySimulation, Job, JobStep, Outage,
                       ScenarioReport, Slowdown, Workload)  # noqa: E402

MACHINES = ("mill", "arm", "plc", "press")

steps_strategy = st.lists(
    st.tuples(st.sampled_from(MACHINES), st.integers(1, 30)),
    min_size=1, max_size=4).map(
        lambda stops: tuple(JobStep(machine, "s", duration)
                            for machine, duration in stops))


@st.composite
def workloads(draw):
    count = draw(st.integers(1, 6))
    jobs = []
    for index in range(count):
        steps = draw(steps_strategy)
        release = draw(st.integers(0, 40))
        work = sum(step.duration for step in steps)
        due = release + work + draw(st.integers(0, 30))
        jobs.append(Job(name=f"j{index}", steps=steps, release=release,
                        due=due))
    return Workload(jobs, machines=MACHINES)


@st.composite
def perturbations(draw):
    """Disjoint windows per machine: a slowdown list + an outage list
    (at most one of each per machine keeps windows trivially valid)."""
    slowdowns = []
    outages = []
    for machine in draw(st.sets(st.sampled_from(MACHINES), max_size=2)):
        start = draw(st.integers(0, 50))
        length = draw(st.integers(1, 60))
        if draw(st.booleans()):
            slowdowns.append(Slowdown(machine, start, start + length,
                                      num=draw(st.integers(2, 4)), den=1))
        else:
            end = None if draw(st.booleans()) else start + length
            outages.append(Outage(machine, start, end))
    return tuple(slowdowns), tuple(outages)


def simulate(workload, slowdowns=(), outages=(), policy="fifo",
             trace=False):
    return FactorySimulation(workload, policy=policy,
                             slowdowns=slowdowns, outages=outages,
                             trace_events=trace).run()


class TestInvariants:
    @given(workloads(), perturbations(),
           st.sampled_from(("fifo", "edd")))
    def test_no_machine_overlaps(self, workload, perturbation, policy):
        slowdowns, outages = perturbation
        outcome = simulate(workload, slowdowns, outages, policy)
        by_machine = {}
        for entry in outcome.schedule:
            by_machine.setdefault(entry.machine, []).append(
                (entry.start, entry.end))
        for spans in by_machine.values():
            spans.sort()
            for (_, first_end), (second_start, _) in zip(spans,
                                                         spans[1:]):
                assert second_start >= first_end

    @given(workloads(), perturbations(),
           st.sampled_from(("fifo", "edd")))
    def test_each_job_runs_its_steps_in_route_order(self, workload,
                                                    perturbation, policy):
        slowdowns, outages = perturbation
        outcome = simulate(workload, slowdowns, outages, policy)
        by_job = {}
        for entry in outcome.schedule:
            by_job.setdefault(entry.job, []).append(entry)
        for entries in by_job.values():
            entries.sort(key=lambda entry: entry.step_index)
            for earlier, later in zip(entries, entries[1:]):
                assert later.start >= earlier.end

    @given(workloads(), perturbations(),
           st.sampled_from(("fifo", "edd")))
    def test_every_job_completes_or_is_stranded(self, workload,
                                                perturbation, policy):
        slowdowns, outages = perturbation
        outcome = simulate(workload, slowdowns, outages, policy)
        assert set(outcome.completions) == \
            {job.name for job in workload.jobs}
        permanent = any(outage.end is None for outage in outages)
        for name, completed in outcome.completions.items():
            if completed is None:
                assert name in outcome.stranded
                assert permanent
            else:
                job = next(j for j in workload.jobs if j.name == name)
                assert completed >= job.release + job.work

    @given(workloads(), perturbations())
    def test_event_keys_are_monotone(self, workload, perturbation):
        slowdowns, outages = perturbation
        outcome = simulate(workload, slowdowns, outages, trace=True)
        keys = [entry[:3] for entry in outcome.event_log]
        assert keys == sorted(keys)
        assert all(earlier[0] <= later[0]
                   for earlier, later in zip(keys, keys[1:]))

    @given(workloads(), st.randoms(use_true_random=False),
           st.sampled_from(("fifo", "edd")))
    def test_report_independent_of_input_order(self, workload, rng,
                                               policy):
        shuffled = list(workload.jobs)
        rng.shuffle(shuffled)
        reordered = Workload(shuffled, machines=workload.machines)

        def report(w):
            return ScenarioReport.from_outcome(
                simulate(w, policy=policy), scenario="t",
                description="", seed=0)

        assert report(workload).digest == report(reordered).digest

    @given(workloads())
    def test_work_conservation(self, workload):
        """Executed busy ticks equal the total work of completed steps."""
        outcome = simulate(workload)
        scheduled = sum(entry.end - entry.start
                        for entry in outcome.schedule)
        assert sum(outcome.busy_ticks.values()) == scheduled
        assert sum(outcome.steps_done.values()) == len(outcome.schedule)
