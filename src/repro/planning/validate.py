"""Plan validation by execution against the behavioural simulators.

A plan is not trusted because the search said so: every plan is
replayed step by step — preconditions checked against the evolving
state, effects applied — and every ``complete`` action actually
*invokes* the modeled service on the part's machine through
:class:`repro.machines.MachineSimulator` (argument defaults per the
service's modeled arity, exactly like the deployment smoke test).
That closes the loop the ROADMAP asks for: the planner's output is
checked against the same behavioural layer the configured factory
runs on, not against the planner's own model of itself.

Violations are collected as deterministic strings (the conformance
harness digests failure text); an empty ``problems`` list plus a
reached goal is the definition of a valid plan.

Simulators are built on demand (:class:`MachineSimulators`): a
machine gets one when a ``complete`` action first reaches it, so a
replay pays for the machines the plan uses, not for the whole
topology.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from ..isa95.levels import FactoryTopology, MachineInfo
from ..machines import MachineSimulator, SimulationError, \
    spec_from_machine_info
from .task import GroundAction, PlanningTask

_ARGUMENT_DEFAULTS = {"Boolean": False, "Integer": 0, "Natural": 0,
                      "Real": 0.0, "Double": 0.0}


@dataclass
class PlanValidation:
    """Outcome of one simulator-backed replay."""

    steps: int = 0
    service_calls: int = 0
    moves: int = 0
    problems: list[str] = field(default_factory=list)
    goal_reached: bool = False

    @property
    def ok(self) -> bool:
        return self.goal_reached and not self.problems

    def to_dict(self) -> dict[str, object]:
        return {"ok": self.ok, "steps": self.steps,
                "service_calls": self.service_calls, "moves": self.moves,
                "goal_reached": self.goal_reached,
                "problems": list(self.problems)}

    @classmethod
    def from_dict(cls, data: dict) -> "PlanValidation":
        return cls(steps=int(data["steps"]),
                   service_calls=int(data["service_calls"]),
                   moves=int(data["moves"]),
                   problems=list(data["problems"]),
                   goal_reached=bool(data["goal_reached"]))


class MachineSimulators(Mapping[str, MachineSimulator]):
    """Machine simulators keyed by raw machine name, each built on
    first access.

    A plan completes steps on a few machines of the topology, so
    building a simulator for every machine up front wastes most of the
    work. Deleting a key makes that machine read as having no
    simulator.
    """

    def __init__(self, machines: list[MachineInfo], *,
                 seed: int | None = None):
        self._seed = seed
        self._entries: dict[str, MachineInfo | MachineSimulator] = {
            machine.name: machine for machine in machines}

    def __getitem__(self, name: str) -> MachineSimulator:
        entry = self._entries[name]
        if isinstance(entry, MachineSimulator):
            return entry
        simulator = MachineSimulator(spec_from_machine_info(entry),
                                     seed=self._seed)
        self._entries[name] = simulator
        return simulator

    def __delitem__(self, name: str) -> None:
        del self._entries[name]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def build_simulators(topology: FactoryTopology,
                     *, seed: int | None = None) -> MachineSimulators:
    """One simulator per machine, keyed by raw machine name, built on
    first access."""
    return MachineSimulators(topology.machines, seed=seed)


def _default_arguments(simulator: MachineSimulator, service: str) -> list:
    spec = simulator.service(service)
    return [_ARGUMENT_DEFAULTS.get(arg.data_type, "plan")
            for arg in spec.inputs]


def validate_plan(task: PlanningTask, actions: tuple[GroundAction, ...],
                  simulators: Mapping[str, MachineSimulator]
                  ) -> PlanValidation:
    """Replay *actions* from ``task.init``; invoke services on
    *simulators* at every ``complete``."""
    outcome = PlanValidation()
    state = set(task.init)
    busy: dict[str, str] = {}  # raw machine name -> part it serves
    for number, action in enumerate(actions, start=1):
        outcome.steps += 1
        missing = sorted(task.atom_names[ident]
                         for ident in action.pre - state)
        if missing:
            outcome.problems.append(
                f"step {number} ({action.name}): precondition(s) not "
                f"satisfied: {', '.join(missing)}")
            # keep replaying — later violations are often the real story
        if action.kind == "start":
            holder = busy.get(action.machine)
            if holder is not None:
                outcome.problems.append(
                    f"step {number} ({action.name}): machine "
                    f"{action.machine!r} is already executing a step "
                    f"for part {holder!r}")
            else:
                busy[action.machine] = action.part
        elif action.kind == "complete":
            if busy.get(action.machine) != action.part:
                outcome.problems.append(
                    f"step {number} ({action.name}): machine "
                    f"{action.machine!r} is not executing a step for "
                    f"part {action.part!r}")
            busy.pop(action.machine, None)
            if action.machine not in simulators:
                outcome.problems.append(
                    f"step {number} ({action.name}): no simulator for "
                    f"machine {action.machine!r}")
            else:
                simulator = simulators[action.machine]
                try:
                    simulator.call(action.service, *_default_arguments(
                        simulator, action.service))
                    outcome.service_calls += 1
                except (SimulationError, KeyError) as error:
                    outcome.problems.append(
                        f"step {number} ({action.name}): simulator "
                        f"rejected {action.service!r} on "
                        f"{action.machine!r}: {error}")
        else:
            outcome.moves += 1
        state -= action.delete
        state |= action.add
    outcome.goal_reached = task.goal <= state
    if not outcome.goal_reached:
        unmet = sorted(task.atom_names[ident]
                       for ident in task.goal - state)
        outcome.problems.append(
            f"plan ends with unmet goal(s): {', '.join(unmet)}")
    return outcome
