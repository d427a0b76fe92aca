"""``repro.sim`` — a deterministic scenario engine for configured factories.

The pipeline's existing endpoint answers *"is the configuration
valid?"*; this subsystem answers *"how does the configured factory
behave?"* — before anything is deployed. It simulates the generated
configuration as a job shop: machines from the extracted ISA-95
topology execute their modeled services one at a time, jobs route
through workcells in production-line order, and seeded scenarios
perturb the baseline (rush orders, machine slowdowns, workcell
outages) using the :mod:`repro.faults` occurrence-hash contract.

Layering (each module only imports downward):

* :mod:`~repro.sim.kernel` — event queue with a **total** order
  ``(tick, priority, ordinal)``; integer clock; no wall time, no
  unseeded randomness anywhere above it.
* :mod:`~repro.sim.workload` — jobs/routes/service times derived from
  a :class:`~repro.isa95.levels.FactoryTopology`.
* :mod:`~repro.sim.policies` — pluggable dispatch (``fifo``, ``edd``).
* :mod:`~repro.sim.engine` — machines, queues, perturbations.
* :mod:`~repro.sim.scenarios` — seeded scenario recipes + registry.
* :mod:`~repro.sim.report` — :class:`ScenarioReport` and the
  cross-scenario :class:`Briefing` artifact.

**Determinism contract.** For a fixed topology, seed, scenario list
and policy, :func:`simulate_suite` produces byte-identical briefing
JSON — across repeated runs and interpreter restarts. Scenarios run
one after another in the caller's thread: a suite takes milliseconds,
less than any worker pool costs to start. The ``sim`` testkit oracle
(:mod:`repro.testkit.oracles`) enforces the contract by digest.
"""

from __future__ import annotations

from ..isa95.levels import FactoryTopology
from ..obs import METRICS, span
from .engine import (FactorySimulation, Outage, ScheduleEntry,
                     SimulationOutcome, Slowdown)
from .kernel import (TICKS_PER_UNIT, Event, SchedulingInPastError,
                     SimulationError, Simulator, scale_ticks, ticks,
                     units)
from .policies import POLICIES, policy_key
from .report import (BRIEFING_SCHEMA, Briefing, JobOutcome,
                     MachineUtilization, ScenarioReport)
from .scenarios import (CANONICAL_SCENARIOS, SCENARIOS, Scenario,
                        ScenarioSpec, build_scenario, horizon,
                        run_scenario)
from .workload import (Job, JobStep, ServiceTimeModel, Workload,
                       WorkloadError, generate_workload,
                       validate_workload)

_SCENARIOS_RUN = METRICS.counter("sim.scenarios")
_EVENTS = METRICS.counter("sim.events")
_JOBS_SIMULATED = METRICS.counter("sim.jobs")


def simulate_suite(topology: FactoryTopology, *, seed: int,
                   names: tuple[str, ...] = CANONICAL_SCENARIOS,
                   policy: str = "fifo",
                   times: ServiceTimeModel | None = None,
                   base_jobs: int | None = None) -> Briefing:
    """Run a scenario suite and compare everything to the first entry.

    Every scenario is materialized over the one shared baseline
    workload, then simulated in list order; with the kernel's total
    event order that makes the briefing a pure function of its inputs.
    """
    if not names:
        raise ValueError("simulate_suite needs at least one scenario")
    if base_jobs is not None and (type(base_jobs) is not int
                                  or base_jobs < 1):
        raise WorkloadError(
            f"base_jobs must be an integer >= 1, got {base_jobs!r}")
    times = times or ServiceTimeModel(topology)
    with span("simulation", seed=seed, scenarios=len(names),
              policy=policy):
        base = generate_workload(topology, seed=seed, jobs=base_jobs,
                                 times=times)
        specs = [build_scenario(name, topology, seed=seed, policy=policy,
                                times=times, base=base)
                 for name in names]
        reports = [run_scenario(spec) for spec in specs]
    _SCENARIOS_RUN.inc(len(reports))
    _EVENTS.inc(sum(report.events for report in reports))
    _JOBS_SIMULATED.inc(sum(len(report.jobs) for report in reports))
    return Briefing(seed=seed, policy=policy, reports=reports)


__all__ = [
    "BRIEFING_SCHEMA", "Briefing", "CANONICAL_SCENARIOS", "Event",
    "FactorySimulation", "Job", "JobOutcome", "JobStep",
    "MachineUtilization", "Outage", "POLICIES", "SCENARIOS",
    "Scenario", "ScenarioReport", "ScenarioSpec", "ScheduleEntry",
    "SchedulingInPastError", "ServiceTimeModel", "SimulationError",
    "SimulationOutcome", "Simulator", "Slowdown", "TICKS_PER_UNIT",
    "Workload", "WorkloadError", "build_scenario", "generate_workload",
    "horizon", "policy_key", "run_scenario", "scale_ticks",
    "simulate_suite", "ticks", "units", "validate_workload",
]
