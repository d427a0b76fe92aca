"""Grounded planning tasks from the extracted ISA-95 topology.

The mapping follows the two PAPERS.md planning entries (Wally et al.,
arXiv:1911.05481; Nabizada et al., arXiv:2506.06714): the ISA-95
equipment hierarchy becomes the *static* structure of a STRIPS task
and the machine service inventories become its action vocabulary.

* **machines** are typed objects stationed at their workcell;
* **locations** are the workcells, chained in production-line order
  (``linked`` both ways between neighbours — parts flow along the
  line, forwards or backwards);
* **parts** are the jobs of a :class:`repro.sim.workload.Workload` —
  one part per job, entering the line at the first workcell;
* **steps** are each job's route entries; a step *wants* exactly one
  service, and any machine *providing* that service (per the service
  inventory) can perform it.

Every service in the inventory grounds into a ``start-<service>`` /
``complete-<service>`` action pair: starting occupies the machine
(deletes ``idle``) and the part (deletes ``free``), completing
releases both and advances the part's ``current`` step along its
``next`` chain. The split is what makes "a machine never executes two
steps at once" a *plan-visible* invariant instead of a modeling
convention — exactly the SOM constraint the sim engine
(:mod:`repro.sim`) enforces operationally.

Symbols are sanitized into PDDL-safe names by an **injective** mangle
(the conformance corpus draws hostile machine names with spaces,
quotes and non-ASCII letters): collisions after cleaning get a
deterministic ``-2``/``-3`` suffix in first-seen (topology) order, so
one topology always produces one symbol table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa95.levels import FactoryTopology
from ..sim.workload import Workload


class PlanningError(ValueError):
    """The topology/workload cannot be grounded, or no plan exists."""


# -- symbol sanitization -----------------------------------------------------

def _clean(raw: str) -> str:
    """Lowercased PDDL-identifier candidate (may be empty)."""
    out: list[str] = []
    for ch in raw.lower():
        if ch.isascii() and (ch.isalnum()):
            out.append(ch)
        elif ch in "-_ .":
            out.append("-")
        # anything else (quotes, unicode, control chars) is dropped
    text = "-".join(part for part in "".join(out).split("-") if part)
    return text


class SymbolTable:
    """Injective raw-name -> PDDL-symbol mapping, first-seen order."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._by_raw: dict[str, str] = {}
        self._taken: set[str] = set()

    def add(self, raw: str) -> str:
        if raw in self._by_raw:
            return self._by_raw[raw]
        base = _clean(raw) or self.prefix
        if not base[0].isalpha():
            base = f"{self.prefix}-{base}"
        symbol, suffix = base, 1
        while symbol in self._taken:
            suffix += 1
            symbol = f"{base}-{suffix}"
        self._taken.add(symbol)
        self._by_raw[raw] = symbol
        return symbol

    def __getitem__(self, raw: str) -> str:
        return self._by_raw[raw]

    def __contains__(self, raw: str) -> bool:
        return raw in self._by_raw

    def items(self):
        return self._by_raw.items()


# -- the shared (per-topology) domain structure ------------------------------

@dataclass(frozen=True)
class ServiceActionSchema:
    """One service of the inventory, as an action-pair schema."""

    raw_name: str
    symbol: str
    providers: tuple[str, ...]  # raw machine names, topology order


class FactoryDomain:
    """Static structure every problem over one topology shares.

    Built once per topology; :func:`build_task` grounds per-workload
    tasks against it, and :mod:`repro.planning.pddl` renders it as the
    ``(define (domain ...))`` file.
    """

    def __init__(self, topology: FactoryTopology, *,
                 name: str = "factory-ops"):
        self.name = name
        self.topology = topology
        self.machine_symbols = SymbolTable("m")
        self.location_symbols = SymbolTable("loc")
        self.service_symbols = SymbolTable("svc")
        #: raw machine name -> location position on the line
        self.machine_position: dict[str, int] = {}
        self.locations: list[str] = []  # raw workcell names, line order
        inventory = topology.service_inventory()
        for position, workcell in enumerate(topology.workcells):
            self.location_symbols.add(workcell.name)
            self.locations.append(workcell.name)
            for machine in workcell.machines:
                self.machine_symbols.add(machine.name)
                self.machine_position[machine.name] = position
        self.schemas: dict[str, ServiceActionSchema] = {}
        for raw_name, providers in inventory.items():
            self.schemas[raw_name] = ServiceActionSchema(
                raw_name=raw_name,
                symbol=self.service_symbols.add(raw_name),
                providers=tuple(providers))

    @property
    def machines(self) -> list[str]:
        """Raw machine names in topology order."""
        return [m.name for m in self.topology.machines]


# -- grounded task -----------------------------------------------------------

@dataclass(frozen=True)
class GroundAction:
    """One grounded action: sets of dynamic atom ids."""

    name: str
    kind: str  # "start" | "complete" | "move"
    pre: frozenset[int]
    add: frozenset[int]
    delete: frozenset[int]
    machine: str = ""  # raw machine name (start/complete)
    service: str = ""  # raw service name (start/complete)
    part: str = ""     # raw job name
    step_index: int = -1

    def applicable(self, state: frozenset[int]) -> bool:
        return self.pre <= state

    def apply(self, state: frozenset[int]) -> frozenset[int]:
        return (state - self.delete) | self.add


@dataclass(frozen=True)
class PartRoute:
    """One part's grounded route (for the heuristic and the emitter)."""

    raw_name: str
    symbol: str
    #: per step: (step symbol, raw service, provider location positions)
    steps: tuple[tuple[str, str, tuple[int, ...]], ...]
    terminal_symbol: str
    #: ``remaining[i][l]`` = exact minimal action count (moves + start +
    #: complete pairs) for this part alone to finish steps ``i..`` when
    #: standing free at location ``l`` — the per-part relaxation the
    #: planner's heuristic sums (admissible: contention only adds cost,
    #: and every action belongs to exactly one part).
    remaining: tuple[tuple[int, ...], ...] = ()


@dataclass
class PlanningTask:
    """A grounded STRIPS task plus the decode tables the planner needs."""

    domain: FactoryDomain
    parts: list[PartRoute]
    atom_names: list[str] = field(default_factory=list)
    init: frozenset[int] = frozenset()
    goal: frozenset[int] = frozenset()
    actions: list[GroundAction] = field(default_factory=list)
    #: atom id -> (part index, step position); terminal = len(steps)
    current_info: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: atom id -> (part index, location position)
    at_info: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: atom id -> (part index, step position, machine location position)
    processing_info: dict[int, tuple[int, int, int]] = \
        field(default_factory=dict)
    #: workload steps dropped because no machine provides their service
    dropped_steps: int = 0
    dropped_jobs: int = 0

    def goal_reached(self, state: frozenset[int]) -> bool:
        return self.goal <= state


def build_task(domain: FactoryDomain, workload: Workload) -> PlanningTask:
    """Ground one workload into a task over *domain*.

    Steps whose machine models no services (the workload generator's
    generic ``process`` handling) have no action schema and are
    dropped; jobs left with no steps are dropped whole. Both counts
    are reported on the task so callers can surface the truncation.
    """
    topology = domain.topology
    task = PlanningTask(domain=domain, parts=[])
    interner: dict[str, int] = {}

    def atom(text: str) -> int:
        ident = interner.get(text)
        if ident is None:
            ident = len(task.atom_names)
            interner[text] = ident
            task.atom_names.append(text)
        return ident

    if not topology.workcells:
        raise PlanningError("topology has no workcells to plan over")
    part_symbols = SymbolTable("p")
    step_symbols = SymbolTable("s")
    init: set[int] = set()
    goal: set[int] = set()
    actions: list[GroundAction] = []

    machine_services = {machine.name: {s.name for s in machine.services}
                        for machine in topology.machines}
    for machine_raw, symbol in domain.machine_symbols.items():
        init.add(atom(f"idle {symbol}"))

    # parts and their step chains
    for job in workload.jobs:
        kept = [step for step in job.steps
                if step.service in machine_services.get(step.machine, ())]
        task.dropped_steps += len(job.steps) - len(kept)
        if not kept:
            task.dropped_jobs += 1
            continue
        part_sym = part_symbols.add(job.name)
        steps: list[tuple[str, str, tuple[int, ...]]] = []
        step_syms: list[str] = []
        for number, step in enumerate(kept, start=1):
            step_sym = step_symbols.add(f"{job.name}#{number}")
            schema = domain.schemas[step.service]
            positions = tuple(sorted({domain.machine_position[provider]
                                      for provider in schema.providers}))
            steps.append((step_sym, step.service, positions))
            step_syms.append(step_sym)
        terminal = step_symbols.add(f"{job.name}#done")
        route = PartRoute(raw_name=job.name, symbol=part_sym,
                          steps=tuple(steps), terminal_symbol=terminal,
                          remaining=_route_table(
                              steps, len(domain.locations)))
        task.parts.append(route)

        entry_loc = domain.location_symbols[domain.locations[0]]
        init.add(atom(f"part-at {part_sym} {entry_loc}"))
        init.add(atom(f"free {part_sym}"))
        init.add(atom(f"current {part_sym} {step_syms[0]}"))
        goal.add(atom(f"current {part_sym} {terminal}"))

        chain = step_syms + [terminal]
        for position, (step_sym, service_raw, _) in enumerate(steps):
            schema = domain.schemas[service_raw]
            next_sym = chain[position + 1]
            for provider in schema.providers:
                machine_sym = domain.machine_symbols[provider]
                loc_pos = domain.machine_position[provider]
                loc_sym = domain.location_symbols[
                    domain.locations[loc_pos]]
                processing = atom(
                    f"processing {machine_sym} {part_sym} {step_sym}")
                current = atom(f"current {part_sym} {step_sym}")
                actions.append(GroundAction(
                    name=(f"start-{schema.symbol} {machine_sym} "
                          f"{part_sym} {step_sym} {loc_sym}"),
                    kind="start",
                    pre=frozenset({
                        atom(f"part-at {part_sym} {loc_sym}"),
                        current,
                        atom(f"idle {machine_sym}"),
                        atom(f"free {part_sym}"),
                    }),
                    add=frozenset({processing}),
                    delete=frozenset({atom(f"idle {machine_sym}"),
                                      atom(f"free {part_sym}")}),
                    machine=provider, service=service_raw,
                    part=job.name, step_index=position))
                actions.append(GroundAction(
                    name=(f"complete-{schema.symbol} {machine_sym} "
                          f"{part_sym} {step_sym} {next_sym}"),
                    kind="complete",
                    pre=frozenset({processing, current}),
                    add=frozenset({atom(f"idle {machine_sym}"),
                                   atom(f"free {part_sym}"),
                                   atom(f"current {part_sym} {next_sym}")}),
                    delete=frozenset({processing, current}),
                    machine=provider, service=service_raw,
                    part=job.name, step_index=position))

        # moves along the line, both directions between neighbours
        for left, right in zip(domain.locations, domain.locations[1:]):
            for source, target in ((left, right), (right, left)):
                source_sym = domain.location_symbols[source]
                target_sym = domain.location_symbols[target]
                actions.append(GroundAction(
                    name=f"move {part_sym} {source_sym} {target_sym}",
                    kind="move",
                    pre=frozenset({
                        atom(f"part-at {part_sym} {source_sym}"),
                        atom(f"free {part_sym}"),
                    }),
                    add=frozenset({
                        atom(f"part-at {part_sym} {target_sym}")}),
                    delete=frozenset({
                        atom(f"part-at {part_sym} {source_sym}")}),
                    part=job.name))

    # decode tables for the heuristic
    for part_index, route in enumerate(task.parts):
        chain = [sym for sym, _, _ in route.steps] + [route.terminal_symbol]
        for position, step_sym in enumerate(chain):
            ident = atom(f"current {route.symbol} {step_sym}")
            task.current_info[ident] = (part_index, position)
        for loc_pos, loc_raw in enumerate(domain.locations):
            loc_sym = domain.location_symbols[loc_raw]
            ident = atom(f"part-at {route.symbol} {loc_sym}")
            task.at_info[ident] = (part_index, loc_pos)
        for position, (step_sym, service_raw, _) in enumerate(route.steps):
            schema = domain.schemas[service_raw]
            for provider in schema.providers:
                machine_sym = domain.machine_symbols[provider]
                ident = atom(f"processing {machine_sym} {route.symbol} "
                             f"{step_sym}")
                task.processing_info[ident] = (
                    part_index, position, domain.machine_position[provider])

    task.init = frozenset(init)
    task.goal = frozenset(goal)
    task.actions = sorted(actions, key=lambda action: action.name)
    return task


def _route_table(steps: list[tuple[str, str, tuple[int, ...]]],
                 n_locations: int) -> tuple[tuple[int, ...], ...]:
    """``remaining[i][l]`` for one part (see :class:`PartRoute`).

    Backwards dynamic programming over (step index, location): doing
    step *i* from location *l* costs the moves to some provider, the
    start/complete pair, and the optimal rest from that provider's
    location — minimized over providers.
    """
    rows: list[tuple[int, ...]] = [tuple([0] * n_locations)]
    for _, _, providers in reversed(steps):
        after = rows[0]
        rows.insert(0, tuple(
            min(abs(location - provider) + 2 + after[provider]
                for provider in providers)
            for location in range(n_locations)))
    return tuple(rows)
