"""Seeded scenarios: the baseline plus deterministic perturbations.

A scenario is a named recipe that takes the factory's baseline order
book and perturbs it the way :mod:`repro.faults` perturbs a pipeline
run: every choice — which machine degrades, which workcell goes dark,
how many rush orders land — is drawn from the same
``(seed, site, kind, occurrence)`` hash contract
(:mod:`repro.faults.schedule`), routed through a real
:class:`~repro.faults.plan.FaultPlan` so chaos testing and scenario
simulation speak one deterministic language.

Selection sites (the scenario engine's slice of the fault namespace):

* ``sim.machine.slowdown`` / ``latency``   — which machines degrade;
* ``sim.workcell.outage`` / ``unavailable`` — which workcell goes dark;
* ``sim.demand.rush`` / ``crash``           — how many rush orders land.

Every schedule falls back to :func:`min_fraction_occurrence`, so a
scenario never degenerates into a second baseline just because the
probability draw came up empty at some seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..faults.plan import (KIND_CRASH, KIND_LATENCY, KIND_UNAVAILABLE,
                           FaultPlan, FaultSpec)
from ..faults.schedule import min_fraction_occurrence, spec_schedule
from ..isa95.levels import FactoryTopology
from .engine import FactorySimulation, Outage, Slowdown
from .kernel import SimulationError
from .report import ScenarioReport
from .workload import ServiceTimeModel, Workload, generate_workload

SITE_SLOWDOWN = "sim.machine.slowdown"
SITE_OUTAGE = "sim.workcell.outage"
SITE_RUSH = "sim.demand.rush"


def horizon(workload: Workload) -> int:
    """The planning horizon (ticks): twice the latest uncontended
    finish — room for every perturbation window to land inside the
    simulated day."""
    latest = max((job.release + job.work for job in workload.jobs),
                 default=0)
    return max(2 * latest, 1)


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully materialized scenario, ready to simulate."""

    name: str
    description: str
    seed: int
    policy: str
    workload: Workload
    slowdowns: tuple[Slowdown, ...] = ()
    outages: tuple[Outage, ...] = ()
    perturbations: tuple[dict, ...] = ()


#: build(topology, base workload, seed, service times) -> perturbed
#: pieces: (workload, slowdowns, outages, perturbation records).
Builder = Callable[
    [FactoryTopology, Workload, int, ServiceTimeModel],
    tuple[Workload, tuple[Slowdown, ...], tuple[Outage, ...], tuple[dict,
                                                                    ...]]]


@dataclass(frozen=True)
class Scenario:
    """A registered scenario recipe."""

    name: str
    description: str
    build: Builder


def _build_baseline(topology: FactoryTopology, base: Workload, seed: int,
                    times: ServiceTimeModel):
    return base, (), (), ()


def _used_machines(base: Workload) -> list[str]:
    """Machines some route actually visits — perturbing an idle machine
    would make every scenario a second baseline."""
    return sorted({step.machine for job in base.jobs
                   for step in job.steps})


def _pick_machines(seed: int, count: int) -> list[int]:
    """Seeded machine indices to degrade (at least one, at most half)."""
    plan = FaultPlan(seed, (FaultSpec(SITE_SLOWDOWN, KIND_LATENCY,
                                      probability=0.2),))
    fired = spec_schedule(plan, plan.specs[0], opportunities=count)
    if not fired:
        fired = [min_fraction_occurrence(seed, SITE_SLOWDOWN, KIND_LATENCY,
                                         opportunities=count)]
    return fired[:max(1, count // 2)]


def _build_slowdown(topology: FactoryTopology, base: Workload, seed: int,
                    times: ServiceTimeModel):
    machines = _used_machines(base)
    window_end = horizon(base)
    start, end = window_end // 4, 3 * window_end // 4
    slowdowns = tuple(
        Slowdown(machine=machines[index], start=start, end=end,
                 num=2, den=1)
        for index in _pick_machines(seed, len(machines)))
    records = tuple({"type": "slowdown", **slowdown.to_dict()}
                    for slowdown in slowdowns)
    return base, slowdowns, (), records


def _pick_workcell(seed: int, count: int) -> int:
    plan = FaultPlan(seed, (FaultSpec(SITE_OUTAGE, KIND_UNAVAILABLE,
                                      probability=0.15),))
    fired = spec_schedule(plan, plan.specs[0], opportunities=count)
    if fired:
        return fired[0]
    return min_fraction_occurrence(seed, SITE_OUTAGE, KIND_UNAVAILABLE,
                                   opportunities=count)


def _workcell_outages(topology: FactoryTopology, base: Workload,
                      seed: int, end: int | None,
                      start: int) -> tuple[tuple[Outage, ...], str]:
    used = set(_used_machines(base))
    workcells = [workcell for workcell in topology.workcells
                 if any(machine.name in used
                        for machine in workcell.machines)]
    if not workcells:
        raise SimulationError("no workcell of the topology appears in "
                              "the workload")
    workcell = workcells[_pick_workcell(seed, len(workcells))]
    outages = tuple(Outage(machine=machine.name, start=start, end=end)
                    for machine in workcell.machines
                    if machine.name in base.machines)
    return outages, workcell.name


def _build_outage(topology: FactoryTopology, base: Workload, seed: int,
                  times: ServiceTimeModel):
    window_end = horizon(base)
    start, end = window_end // 4, window_end // 2
    outages, workcell = _workcell_outages(topology, base, seed, end, start)
    records = tuple({"type": "outage", "workcell": workcell,
                     **outage.to_dict()} for outage in outages)
    return base, (), outages, records


def _build_blackout(topology: FactoryTopology, base: Workload, seed: int,
                    times: ServiceTimeModel):
    """A workcell that never comes back — jobs routed through it are
    reported stranded, not silently dropped."""
    start = horizon(base) // 4
    outages, workcell = _workcell_outages(topology, base, seed, None,
                                          start)
    records = tuple({"type": "blackout", "workcell": workcell,
                     **outage.to_dict()} for outage in outages)
    return base, (), outages, records


def _rush_count(seed: int, base_jobs: int) -> int:
    """Seeded rush-order volume in ``[1, ceil(base/2)]``."""
    plan = FaultPlan(seed, (FaultSpec(SITE_RUSH, KIND_CRASH,
                                      probability=0.4),))
    fired = spec_schedule(plan, plan.specs[0],
                          opportunities=max(base_jobs, 1))
    ceiling = max(1, -(-base_jobs // 2))
    return min(max(1, len(fired)), ceiling)


def _build_rush(topology: FactoryTopology, base: Workload, seed: int,
                times: ServiceTimeModel):
    from .kernel import TICKS_PER_UNIT
    window_end = horizon(base)
    count = _rush_count(seed, len(base))
    rush = generate_workload(
        topology, seed=seed, jobs=count, times=times,
        name_prefix="rush", stream="rush",
        release_offset=window_end // 4,
        release_window_units=(window_end // 4) / TICKS_PER_UNIT,
        slack_percent=20)
    # rush orders carry double lateness weight: missing one hurts more
    extra = [replace(job, weight=2) for job in rush.jobs]
    records = tuple({"type": "rush-order", "job": job.name,
                     "release": job.release, "due": job.due,
                     "steps": len(job.steps)} for job in extra)
    return base.extended(extra), (), (), records


#: The scenario registry (open: tests register their own).
SCENARIOS: dict[str, Scenario] = {
    "baseline": Scenario(
        "baseline", "the order book as generated, no perturbations",
        _build_baseline),
    "rush-order": Scenario(
        "rush-order", "a seeded burst of tight-deadline orders lands "
                      "mid-horizon", _build_rush),
    "slowdown": Scenario(
        "slowdown", "seeded machines run at half speed through the "
                    "middle of the horizon", _build_slowdown),
    "outage": Scenario(
        "outage", "a seeded workcell goes dark for a quarter of the "
                  "horizon", _build_outage),
    "blackout": Scenario(
        "blackout", "a seeded workcell never comes back (strands its "
                    "jobs)", _build_blackout),
}

#: The committed-golden trio: baseline first (the briefing's reference).
CANONICAL_SCENARIOS = ("baseline", "rush-order", "slowdown")


def build_scenario(name: str, topology: FactoryTopology, *, seed: int,
                   policy: str = "fifo",
                   times: ServiceTimeModel | None = None,
                   base: Workload | None = None,
                   jobs: int | None = None) -> ScenarioSpec:
    """Materialize one registered scenario for *topology* at *seed*."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; known: "
                       f"{', '.join(sorted(SCENARIOS))}") from None
    times = times or ServiceTimeModel(topology)
    if base is None:
        base = generate_workload(topology, seed=seed, jobs=jobs,
                                 times=times)
    workload, slowdowns, outages, records = scenario.build(
        topology, base, seed, times)
    return ScenarioSpec(name=scenario.name,
                        description=scenario.description, seed=seed,
                        policy=policy, workload=workload,
                        slowdowns=slowdowns, outages=outages,
                        perturbations=records)


def run_scenario(spec: ScenarioSpec) -> ScenarioReport:
    """Simulate one materialized scenario into its report."""
    simulation = FactorySimulation(
        spec.workload, policy=spec.policy, slowdowns=spec.slowdowns,
        outages=spec.outages)
    outcome = simulation.run()
    return ScenarioReport.from_outcome(
        outcome, scenario=spec.name, description=spec.description,
        seed=spec.seed, perturbations=[dict(record)
                                       for record in spec.perturbations])
