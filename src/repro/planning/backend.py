"""The operations-planning backend: topology -> PDDL -> plans.

This is the third codegen backend beside the intermediate JSON and the
Kubernetes YAML: where those answer *"how do we configure the
factory?"*, this one answers *"how does the configured factory work
off an order book?"* — a PDDL domain derived from the machine service
inventories, one problem file per seeded workload, a deterministic
plan for each, and a simulator-backed validation verdict.

Determinism contract (the ``plan`` conformance oracle enforces it):
for one topology + one :class:`PlanningOptions`, the emitted files and
plans are **byte-identical** across repeat runs, ``--jobs`` 1-vs-N and
interpreter restarts. Problems fan out through
:func:`repro.parallel.map_ordered`, serially or on a process pool with
input-order results; the planner seeds its own tie-breaks, and nothing
reads the clock.

Results route through the content-addressed cache keyed on the model's
``content_fingerprint`` (or a structural topology key when no model is
at hand) plus the semantic planning options, salted with
:data:`repro.fingerprint.PLAN_SALT` — a warm ``repro plan`` serves the
whole bundle without searching.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from ..fingerprint import PLAN_SALT, fingerprint
from ..gcpolicy import gc_window
from ..isa95.levels import FactoryTopology
from ..obs import METRICS, span
from ..parallel import map_ordered
from ..sim.workload import Workload, generate_workload
from .pddl import emit_domain, emit_problem, render_plan
from .planner import DEFAULT_MAX_EXPANSIONS, SearchResult, solve
from .task import FactoryDomain, PlanningError, PlanningTask, build_task
from .validate import PlanValidation, build_simulators, validate_plan

_PROBLEMS = METRICS.counter("plan.problems")
_EXPANDED = METRICS.counter("plan.nodes_expanded")
_CACHE_HITS = METRICS.counter("plan.cache_hits")
_INVALID = METRICS.counter("plan.validation_failures")


@dataclass(frozen=True)
class PlanningOptions:
    """Everything that shapes one planning run.

    ``jobs`` is *mechanical* (process-pool width; 1 runs serially) and
    excluded from the cache key; every other field is semantic.
    """

    seed: int = 0
    problems: int = 1
    orders: int | None = None       # jobs per workload (None = default)
    strategy: str = "greedy"        # or "uniform"
    planner_seed: int | None = None  # tie-break seed (None = seed)
    validate: bool = True
    max_expansions: int = DEFAULT_MAX_EXPANSIONS
    jobs: int = 1

    def __post_init__(self) -> None:
        checked = {"problems": self.problems,
                   "max_expansions": self.max_expansions,
                   "jobs": self.jobs}
        if self.orders is not None:
            checked["orders"] = self.orders
        for name, value in checked.items():
            # bool is an int subclass; ``orders=True`` is not one order
            if type(value) is not int or value < 1:
                raise PlanningError(
                    f"{name} must be an integer >= 1, got {value!r}")

    def replace(self, **changes) -> "PlanningOptions":
        return dataclasses.replace(self, **changes)

    @property
    def effective_planner_seed(self) -> int:
        return self.seed if self.planner_seed is None else self.planner_seed

    def semantic_key(self) -> dict[str, object]:
        return {"seed": self.seed, "problems": self.problems,
                "orders": self.orders, "strategy": self.strategy,
                "planner_seed": self.effective_planner_seed,
                "validate": self.validate,
                "max_expansions": self.max_expansions}


@dataclass
class PlannedProblem:
    """One problem file plus its plan and validation verdict."""

    name: str
    problem_text: str
    plan_text: str
    actions: tuple[str, ...]
    cost: int
    expanded: int
    generated: int
    parts: int
    steps: int
    dropped_steps: int
    workload_fingerprint: str
    validation: PlanValidation | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "problem_text": self.problem_text,
            "plan_text": self.plan_text,
            "actions": list(self.actions),
            "cost": self.cost,
            "expanded": self.expanded,
            "generated": self.generated,
            "parts": self.parts,
            "steps": self.steps,
            "dropped_steps": self.dropped_steps,
            "workload_fingerprint": self.workload_fingerprint,
            "validation": (self.validation.to_dict()
                           if self.validation else None),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlannedProblem":
        validation = data.get("validation")
        return cls(
            name=data["name"], problem_text=data["problem_text"],
            plan_text=data["plan_text"],
            actions=tuple(data["actions"]), cost=int(data["cost"]),
            expanded=int(data["expanded"]),
            generated=int(data["generated"]), parts=int(data["parts"]),
            steps=int(data["steps"]),
            dropped_steps=int(data["dropped_steps"]),
            workload_fingerprint=data["workload_fingerprint"],
            validation=(PlanValidation.from_dict(validation)
                        if validation else None))


@dataclass
class PlanningResult:
    """The full bundle of one planning run."""

    domain_text: str
    problems: list[PlannedProblem] = field(default_factory=list)
    options: PlanningOptions = field(default_factory=PlanningOptions)
    provenance: str = "computed"  # or "cached"

    @property
    def all_valid(self) -> bool:
        return all(problem.validation is None or problem.validation.ok
                   for problem in self.problems)

    def files(self) -> dict[str, str]:
        """Filename -> text, the byte-identity surface of the oracle."""
        emitted = {"domain.pddl": self.domain_text}
        for problem in self.problems:
            emitted[f"{problem.name}.pddl"] = problem.problem_text
            emitted[f"{problem.name}.plan"] = problem.plan_text
        return emitted

    @property
    def digest(self) -> str:
        return fingerprint(self.files(),
                           [problem.to_dict() for problem in self.problems],
                           salt=PLAN_SALT)

    def write_to(self, directory: str) -> list[str]:
        os.makedirs(directory, exist_ok=True)
        written = []
        for filename, text in sorted(self.files().items()):
            path = os.path.join(directory, filename)
            with open(path, "w") as handle:
                handle.write(text)
            written.append(path)
        return written

    def summary(self) -> dict[str, object]:
        return {
            "problems": len(self.problems),
            "strategy": self.options.strategy,
            "plan_costs": [problem.cost for problem in self.problems],
            "nodes_expanded": sum(problem.expanded
                                  for problem in self.problems),
            "validated": self.all_valid if self.options.validate else None,
            "provenance": self.provenance,
        }

    def to_dict(self) -> dict[str, object]:
        return {"domain_text": self.domain_text,
                "problems": [problem.to_dict()
                             for problem in self.problems]}


def topology_planning_key(topology: FactoryTopology) -> str:
    """Structural hash of everything the planner consumes."""
    return fingerprint(
        [[workcell.name,
          [[machine.name,
            [[service.name, len(service.inputs), len(service.outputs)]
             for service in machine.services],
            len(machine.variables)]
           for machine in workcell.machines]]
         for workcell in topology.workcells],
        salt=PLAN_SALT)


def _problem_name(index: int) -> str:
    return f"problem-{index:03d}"


def _solve_one(item: tuple[int, Workload, FactoryDomain,
                           PlanningOptions]) -> PlannedProblem:
    # module-level (not a closure) so the process pool can pickle it;
    # everything it needs rides in the task payload
    index, workload, domain, options = item
    name = _problem_name(index)
    task = build_task(domain, workload)
    problem_text = emit_problem(task, name=name)
    result: SearchResult = solve(
        task, strategy=options.strategy,
        seed=options.effective_planner_seed,
        max_expansions=options.max_expansions)
    validation = None
    if options.validate:
        validation = validate_plan(
            task, result.actions,
            build_simulators(domain.topology))
    return PlannedProblem(
        name=name, problem_text=problem_text,
        plan_text=render_plan(result.actions, cost=result.cost),
        actions=tuple(action.name for action in result.actions),
        cost=result.cost, expanded=result.expanded,
        generated=result.generated, parts=len(task.parts),
        steps=sum(len(route.steps) for route in task.parts),
        dropped_steps=task.dropped_steps,
        workload_fingerprint=workload.fingerprint_key(),
        validation=validation)


def plan_operations(topology: FactoryTopology,
                    options: PlanningOptions | None = None, *,
                    model_fingerprint: str | None = None,
                    cache=None) -> PlanningResult:
    """Run the full backend: emit, plan, validate — cached end to end."""
    options = options or PlanningOptions()
    if not topology.machines:
        raise PlanningError("topology has no machines to plan for")
    with gc_window(), span("planning", seed=options.seed,
                           problems=options.problems,
                           strategy=options.strategy) as planning_span:
        content_key = model_fingerprint or topology_planning_key(topology)
        cache_key = fingerprint(content_key, options.semantic_key(),
                                salt=PLAN_SALT)
        if cache is not None:
            cached = cache.get_object(cache_key)
            if isinstance(cached, dict) and "domain_text" in cached:
                _CACHE_HITS.inc()
                planning_span.set("provenance", "cached")
                return PlanningResult(
                    domain_text=cached["domain_text"],
                    problems=[PlannedProblem.from_dict(problem)
                              for problem in cached["problems"]],
                    options=options, provenance="cached")

        with span("plan.emit"):
            domain = FactoryDomain(topology)
            domain_text = emit_domain(domain)
            workloads = [
                generate_workload(
                    topology, seed=options.seed, jobs=options.orders,
                    stream=f"plan-{index}", name_prefix=f"order{index}")
                for index in range(options.problems)]

        problems = map_ordered(
            _solve_one,
            [(index, workload, domain, options)
             for index, workload in enumerate(workloads)],
            jobs=options.jobs,
            span_label=lambda item, _: f"plan:{_problem_name(item[0])}",
            pool_span="plan.pool")
        result = PlanningResult(domain_text=domain_text, problems=problems,
                                options=options)
        _PROBLEMS.inc(len(problems))
        _EXPANDED.inc(sum(problem.expanded for problem in problems))
        _INVALID.inc(sum(1 for problem in problems
                         if problem.validation is not None
                         and not problem.validation.ok))
        planning_span.set("plan_costs",
                          [problem.cost for problem in problems])
        if cache is not None:
            cache.put_object(cache_key, result.to_dict())
    return result
