"""``repro.planning`` — ISA-95 -> PDDL operations planning.

The third codegen backend (beside the intermediate JSON and the
Kubernetes YAML, see :data:`repro.codegen.CODEGEN_BACKENDS`): it turns
the extracted factory topology into an AI-planning problem and solves
it, the direction the related work (Wally et al., arXiv:1911.05481;
Nabizada et al., arXiv:2506.06714) takes from the same ISA-95/SysML
substrate.

Layering (each module only imports downward):

* :mod:`~repro.planning.task`    — injective symbol tables, the shared
  :class:`FactoryDomain`, per-workload STRIPS grounding;
* :mod:`~repro.planning.pddl`    — deterministic domain/problem/plan
  text rendering;
* :mod:`~repro.planning.planner` — from-scratch best-first forward
  search (``greedy``/``uniform``) with a seeded **total** tie-break
  order — no wall time, no unseeded random;
* :mod:`~repro.planning.validate`— plan replay against the behavioural
  :class:`repro.machines.MachineSimulator` instances, each built when
  the replay first reaches its machine;
* :mod:`~repro.planning.backend` — :func:`plan_operations`: cache,
  tracing span, ``map_ordered`` fan-out (serial, or a process pool of
  ``jobs`` workers), the whole bundle.

``repro plan`` is the CLI surface; the ``plan`` conformance oracle
(:mod:`repro.testkit.oracles`) holds the backend to byte-identical
emission across repeat runs and ``--jobs`` 1-vs-N, simulator-validated
plans, and cost equivalence across planner seeds.
"""

from .backend import (PlannedProblem, PlanningOptions, PlanningResult,
                      plan_operations, topology_planning_key)
from .pddl import emit_domain, emit_problem, render_plan
from .planner import DEFAULT_MAX_EXPANSIONS, STRATEGIES, SearchResult, solve
from .task import (FactoryDomain, GroundAction, PlanningError,
                   PlanningTask, SymbolTable, build_task)
from .validate import (MachineSimulators, PlanValidation, build_simulators,
                       validate_plan)

__all__ = [
    "DEFAULT_MAX_EXPANSIONS", "FactoryDomain", "GroundAction",
    "MachineSimulators", "PlannedProblem", "PlanningError", "PlanningOptions",
    "PlanningResult", "PlanningTask", "PlanValidation", "STRATEGIES",
    "SearchResult", "SymbolTable", "build_simulators", "build_task",
    "emit_domain", "emit_problem", "plan_operations",
    "render_plan", "solve", "topology_planning_key", "validate_plan",
]
