"""Jobs, routes and service times, derived from the configuration.

This is where the scenario engine plugs into the paper's pipeline
output: a :class:`Workload` is built *from* the extracted ISA-95
topology — machines are the resources, their service inventories are
the vocabulary of job steps, and the workcell/production-line structure
orders routes the way parts actually flow through a line.

Two sources of jobs:

* **Explicit order books** — callers (the production-scheduling
  example, tests) construct :class:`Job` objects directly from known
  recipes;
* **Seeded generation** — :func:`generate_workload` draws routes,
  release times and due dates from the deterministic occurrence-hash
  contract of :mod:`repro.faults.schedule`, so one integer seed plus
  one topology fully determines the workload.

Service durations come from :class:`ServiceTimeModel`: a pure function
of the machine and service *as modeled* (argument arity, machine data
width), so richer services take longer and the same configuration
always costs the same simulated time. All times are integer ticks
(:mod:`repro.sim.kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.schedule import occurrence_fraction
from ..fingerprint import WORKLOAD_SALT, fingerprint
from ..isa95.levels import FactoryTopology, MachineInfo, ServiceSpec
from .kernel import TICKS_PER_UNIT


class WorkloadError(ValueError):
    """The workload references machines/services the factory lacks."""


@dataclass(frozen=True)
class JobStep:
    """One service invocation on one machine, with a fixed duration."""

    machine: str
    service: str
    duration: int  # ticks

    def to_dict(self) -> dict[str, object]:
        return {"machine": self.machine, "service": self.service,
                "duration": self.duration}


@dataclass(frozen=True)
class Job:
    """An ordered route of steps with release and due times (ticks)."""

    name: str
    steps: tuple[JobStep, ...]
    release: int = 0
    due: int = 0
    #: Lateness weight (briefing-level aggregation; 1 = plain job).
    weight: int = 1

    def __post_init__(self) -> None:
        if not self.steps:
            raise WorkloadError(f"job {self.name!r} has no steps")
        if self.release < 0:
            raise WorkloadError(f"job {self.name!r} released at negative "
                                f"t={self.release}")
        if any(step.duration < 0 for step in self.steps):
            raise WorkloadError(f"job {self.name!r} has a negative-duration "
                                f"step")

    @property
    def work(self) -> int:
        """Total processing ticks along the route."""
        return sum(step.duration for step in self.steps)

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "release": self.release,
                "due": self.due, "weight": self.weight,
                "steps": [step.to_dict() for step in self.steps]}


@dataclass
class Workload:
    """A batch of jobs, canonicalized for input-order independence.

    Jobs are stored sorted by ``(release, name)`` and names must be
    unique — so two callers handing the same *set* of jobs in different
    list orders simulate identically (the ``sim`` conformance oracle
    checks the resulting report digests agree).
    """

    jobs: tuple[Job, ...] = ()
    machines: tuple[str, ...] = field(default=(), repr=False)

    def __init__(self, jobs, *, machines: tuple[str, ...] = ()):
        ordered = sorted(jobs, key=lambda job: (job.release, job.name))
        names = [job.name for job in ordered]
        if len(names) != len(set(names)):
            duplicates = sorted({name for name in names
                                 if names.count(name) > 1})
            raise WorkloadError(f"duplicate job names: {duplicates}")
        self.jobs = tuple(ordered)
        self.machines = tuple(machines) if machines else tuple(
            sorted({step.machine for job in ordered
                    for step in job.steps}))
        missing = sorted({step.machine for job in ordered
                          for step in job.steps} - set(self.machines))
        if missing:
            raise WorkloadError(
                f"jobs reference unknown machines: {missing}")

    def __len__(self) -> int:
        return len(self.jobs)

    def extended(self, extra: list[Job]) -> "Workload":
        """A new workload with *extra* jobs merged in (rush orders)."""
        return Workload(list(self.jobs) + list(extra),
                        machines=self.machines)

    def to_dict(self) -> dict[str, object]:
        return {"machines": list(self.machines),
                "jobs": [job.to_dict() for job in self.jobs]}

    def fingerprint_key(self) -> str:
        """Content hash of the canonicalized job set.

        Because the constructor sorts jobs by ``(release, name)``, two
        equal job *sets* handed over in different input orders share
        one key — the scenario engine and the planning backend both
        lean on this for their "equivalent workload" statements
        (:class:`repro.fingerprint.Fingerprintable`).
        """
        return fingerprint(self.to_dict(), salt=WORKLOAD_SALT)


class ServiceTimeModel:
    """Deterministic service durations from the modeled configuration.

    ``duration = base * (1 + 0.5*inputs + 0.25*outputs) * width`` where
    *width* stretches services of data-rich machines (a machine holding
    many data points models a physically bigger operation: milling vs a
    pick). Base and the resulting durations are in ticks; overrides
    (``machine.service`` -> model time units) pin known-long operations
    exactly, the way the old example's duration map did.
    """

    def __init__(self, topology: FactoryTopology, *,
                 base_units: float = 1.0,
                 overrides: dict[str, float] | None = None):
        self.base_ticks = round(base_units * TICKS_PER_UNIT)
        self.overrides = {name: round(duration * TICKS_PER_UNIT)
                          for name, duration in (overrides or {}).items()}
        self._machines: dict[str, MachineInfo] = {
            machine.name: machine for machine in topology.machines}

    def _width(self, machine: MachineInfo) -> tuple[int, int]:
        """(numerator, denominator) stretch from the machine's data
        width: +10% per 8 data points, capped at 2x."""
        steps = min(len(machine.variables) // 8, 10)
        return 10 + steps, 10

    def duration(self, machine_name: str, service_name: str) -> int:
        """Ticks the service occupies its machine (>= 1)."""
        override = self.overrides.get(f"{machine_name}.{service_name}")
        if override is not None:
            return max(1, override)
        machine = self._machines.get(machine_name)
        if machine is None:
            raise WorkloadError(f"no machine named {machine_name!r}")
        spec = next((s for s in machine.services
                     if s.name == service_name), None)
        arity_quarters = 4  # 1.0 in quarter-units
        if spec is not None:
            arity_quarters += 2 * len(spec.inputs) + len(spec.outputs)
        num, den = self._width(machine)
        # base * arity/4 * num/den, rounded up to a whole tick
        raw = self.base_ticks * arity_quarters * num
        return max(1, -(-raw // (4 * den)))

    def service_names(self, machine_name: str) -> list[str]:
        machine = self._machines.get(machine_name)
        if machine is None:
            raise WorkloadError(f"no machine named {machine_name!r}")
        return [service.name for service in machine.services]


#: Hash sites of the seeded workload generator (see
#: :mod:`repro.faults.schedule` for the contract).
SITE_WORKLOAD = "sim.workload"


def _frac(seed: int, kind: str, n: int) -> float:
    return occurrence_fraction(seed, SITE_WORKLOAD, kind, n)


def _pick(seed: int, kind: str, n: int, count: int) -> int:
    """A deterministic index in ``[0, count)``."""
    return min(int(_frac(seed, kind, n) * count), count - 1)


def generate_workload(topology: FactoryTopology, *, seed: int,
                      jobs: int | None = None,
                      times: ServiceTimeModel | None = None,
                      name_prefix: str = "job",
                      stream: str = "base",
                      release_window_units: float = 10.0,
                      release_offset: int = 0,
                      slack_percent: int = 60) -> Workload:
    """A seeded order book over the factory's own machines and services.

    Routes follow the production line: each job visits a deterministic
    subset of machines *in topology order* (parts flow forward through
    workcells), invoking one modeled service per visit. Release times
    spread over ``release_window_units``; due dates grant each job its
    processing time plus ``slack_percent`` percent slack — tight enough
    that contention shows up as lateness, loose enough that the
    baseline is mostly on time.

    *stream* namespaces the hash draws: rush orders generated at the
    same seed (``stream="rush"``) get genuinely different routes from
    the baseline book instead of repeating its first jobs.
    """
    machines = [machine.name for machine in topology.machines]
    if not machines:
        raise WorkloadError("topology has no machines to simulate")
    times = times or ServiceTimeModel(topology)
    if jobs is None:
        jobs = max(4, 2 * len(topology.workcells))
    elif type(jobs) is not int or jobs < 1:
        raise WorkloadError(f"jobs must be an integer >= 1, got {jobs!r}")
    release_window = round(release_window_units * TICKS_PER_UNIT)
    built: list[Job] = []
    for index in range(jobs):
        length = 2 + _pick(seed, f"{stream}:route-length", index, 3)
        length = min(length, len(machines))  # 2..4 visits
        visited: list[int] = []
        draw = 0
        while len(visited) < length and draw < 8 * length:
            position = _pick(seed, f"{stream}:route-{index}", draw,
                             len(machines))
            if position not in visited:
                visited.append(position)
            draw += 1
        steps: list[JobStep] = []
        for stop, position in enumerate(sorted(visited)):
            machine_name = machines[position]
            services = times.service_names(machine_name)
            if services:
                service = services[_pick(seed, f"{stream}:service-{index}",
                                         stop, len(services))]
            else:
                service = "process"  # data-only machine: generic handling
            steps.append(JobStep(machine_name, service,
                                 times.duration(machine_name, service)
                                 if services else times.base_ticks))
        release = release_offset + int(
            _frac(seed, f"{stream}:release", index) * release_window)
        work = sum(step.duration for step in steps)
        due = release + work + work * slack_percent // 100
        built.append(Job(name=f"{name_prefix}-{index:03d}",
                         steps=tuple(steps), release=release, due=due))
    return Workload(built, machines=tuple(machines))


def validate_workload(workload: Workload,
                      topology: FactoryTopology) -> list[str]:
    """Problems that would strand jobs: unknown machines/services."""
    known = {machine.name: {service.name for service in machine.services}
             for machine in topology.machines}
    problems: list[str] = []
    for job in workload.jobs:
        for step in job.steps:
            if step.machine not in known:
                problems.append(f"{job.name}: unknown machine "
                                f"{step.machine!r}")
            elif known[step.machine] and step.service != "process" \
                    and step.service not in known[step.machine]:
                problems.append(f"{job.name}: machine {step.machine!r} "
                                f"has no service {step.service!r}")
    return problems
