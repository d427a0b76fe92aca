"""Scheduling a batch of production jobs with the scenario engine.

The order book is four explicit part recipes over the ICE lab's
machines. Instead of ad-hoc slot scheduling, the batch runs through
``repro.sim``: the discrete-event engine books every machine (one
service at a time, route order preserved), service durations come from
the configuration itself (:class:`ServiceTimeModel`), and the resulting
schedule is dispatched step by step through the message broker to the
deployed stack. A what-if pass then re-simulates the same book under a
mill slowdown — prediction before deployment, the scenario engine's
whole point.

Run with:  python examples/production_scheduling.py
"""

from repro.icelab import run_icelab
from repro.sim import (FactorySimulation, Job, JobStep, ScenarioReport,
                       ServiceTimeModel, Slowdown, Workload, units)
from repro.som import OrchestrationError, ServiceLookupError

#: (job, route) — each stop is (machine, service, *broker args).
RECIPES = {
    "part-A": [("warehouse", "fetch_tray", 1),
               ("kairos1", "move_to", 2.0, 1.0),
               ("emco", "load_program", "part_a.nc"),
               ("emco", "start_program"),
               ("qcPc", "inspect", "part-A")],
    "part-B": [("warehouse", "fetch_tray", 2),
               ("kairos1", "pick", "blank-B"),
               ("emco", "load_program", "part_b.nc"),
               ("emco", "start_program"),
               ("qcPc", "inspect", "part-B")],
    "assembly": [("warehouse", "fetch_tray", 3),
                 ("kairos2", "pick", "housing"),
                 ("ur5", "load_program", "assemble"),
                 ("ur5", "play"),
                 ("siemensPlc", "start_cycle"),
                 ("fiam", "start_tightening")],
    "logistics": [("conveyor", "register_pallet", 42),
                  ("conveyor", "route_pallet", 42, 6),
                  ("kairos2", "dock")],
}

#: Milling and long-running programs dominate; everything else uses
#: the configuration-derived default durations.
OVERRIDES = {"emco.start_program": 4.0, "ur5.play": 3.0,
             "qcPc.inspect": 2.0}


def make_workload(times: ServiceTimeModel, recipes=RECIPES) -> Workload:
    jobs = []
    for name, route in recipes.items():
        steps = tuple(JobStep(machine, service,
                              times.duration(machine, service))
                      for machine, service, *_ in route)
        work = sum(step.duration for step in steps)
        jobs.append(Job(name=name, steps=steps, due=work * 2))
    return Workload(jobs)


def dispatch(schedule, orchestrator, recipes=RECIPES) -> tuple[int, int]:
    """Invoke every scheduled step over the broker, in start order.

    Returns ``(executed, failed)``. A service that fails or is missing
    counts as failed; any other exception is a bug and propagates.
    """
    args_by_step = {(name, index): tuple(rest)
                    for name, route in recipes.items()
                    for index, (_, _, *rest) in enumerate(route)}
    executed = failed = 0
    for entry in sorted(schedule, key=lambda e: e.start):
        arguments = args_by_step[(entry.job, entry.step_index)]
        try:
            orchestrator.invoke(entry.machine, entry.service, *arguments)
            executed += 1
        except (OrchestrationError, ServiceLookupError) as error:
            failed += 1
            print(f"  {entry.job}/{entry.service} failed: {error}")
    return executed, failed


def simulate(workload: Workload, **perturbations) -> ScenarioReport:
    outcome = FactorySimulation(workload, **perturbations).run()
    return ScenarioReport.from_outcome(
        outcome, scenario="order-book", description="", seed=0)


def main() -> None:
    print("deploying the ICE lab...")
    result = run_icelab(smoke_steps=2, seed=11)
    times = ServiceTimeModel(result.topology, overrides=OVERRIDES)
    workload = make_workload(times)

    print("\n== simulated schedule ==")
    outcome = FactorySimulation(workload).run()
    for entry in sorted(outcome.schedule,
                        key=lambda e: (e.start, e.machine)):
        print(f"  t={units(entry.start):6.2f}  {entry.machine:>10}  "
              f"{entry.job}/{entry.service}")
    print(f"makespan {units(outcome.makespan):g}")

    print("\n== dispatch over the broker ==")
    executed, failed = dispatch(outcome.schedule, result.orchestrator)
    print(f"executed {executed} steps ({failed} failed)")

    print("\n== machine contention ==")
    report = simulate(workload)
    for machine in report.machines:
        if machine.steps:
            print(f"  {machine.name:>10}: {machine.steps} steps, "
                  f"busy {units(machine.busy):g} of "
                  f"{units(report.makespan):g}")

    print("\n== what-if: the mill runs at half speed ==")
    degraded = simulate(workload, slowdowns=(
        Slowdown("emco", 0, outcome.makespan * 2, num=2, den=1),))
    print(f"makespan {units(report.makespan):g} -> "
          f"{units(degraded.makespan):g}, late jobs "
          f"{report.late_jobs} -> {degraded.late_jobs}")

    result.shutdown()


if __name__ == "__main__":
    main()
