"""From-scratch deterministic forward search over grounded tasks.

Two strategies share one best-first loop:

* ``uniform`` — uniform-cost search (f = g, unit action costs):
  cost-optimal, used where plan *cost* must be seed-independent;
* ``greedy``  — greedy best-first on the heuristic (f = h): the
  default. The heuristic, the sum of each part's exact remaining cost
  (``PartRoute.remaining``), is monotonically improvable on tasks
  ground by :func:`repro.planning.task.build_task` (there is always an
  action that lowers it: complete a running step, start a ready one,
  or move a part one hop toward the nearest provider), so greedy
  expansions stay near-linear in plan length — it scales to
  mega-factory workloads where Dijkstra's frontier explodes.

**Determinism contract** (same as :mod:`repro.sim`): no wall time, no
unseeded randomness. The open list is a heap ordered by ``(f,
tie, ordinal)`` where *tie* is a SHA-256 over the planner seed, the
successor state's sorted atoms and the producing action — a **total,
seeded order**, so equal-f ties break identically on every run,
process and pool width, and *differently* across planner seeds
(which is what the ``plan`` oracle's cross-seed equivalence check
exercises). Successors are generated in sorted action-name order, so
even the insertion ordinal is reproducible.

**Paying only for what changes.** Every action moves, starts or
completes a step of exactly one part, so :func:`solve` never decodes a
whole state. Each heap entry carries the state's part view (each
part's cost, step position, location and running step), and a
successor's heuristic is h(s) − cost(p, s) + cost(p, s′) for the one
part *p* the action touches. The reference definition, which decodes
the state from its atoms, lives with the planner tests
(``tests/planning/heuristic_reference.py``); they hold the two equal
at every generated state. Successors come from a
:class:`SearchIndex` that files each action under one of its
precondition atoms, in ``task.actions`` order, so heap counters and
plans are those of a full scan.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass

from .task import GroundAction, PartRoute, PlanningError, PlanningTask

STRATEGIES = ("greedy", "uniform")

#: Loud-failure ceiling: a search that expands this much is wedged
#: (the corpus tasks solve in hundreds of expansions), and failing
#: deterministically beats hanging a CI job.
DEFAULT_MAX_EXPANSIONS = 200_000


@dataclass(frozen=True)
class SearchResult:
    """A plan plus the (deterministic) search effort that found it."""

    actions: tuple[GroundAction, ...]
    cost: int
    expanded: int
    generated: int
    strategy: str
    seed: int


#: One part's view of a state: ``(cost, step position, location,
#: running step)``. *running* is ``(step position, machine location)``
#: while a step is in progress, else ``None``; a finished part sits at
#: step position ``len(route.steps)`` with cost 0.
PartEntry = tuple[int, int, int, "tuple[int, int] | None"]


def _part_cost(route: PartRoute, position: int, location: int,
               running: tuple[int, int] | None) -> int:
    if position >= len(route.steps):
        return 0
    if running is not None:
        step_position, machine_location = running
        return 1 + route.remaining[step_position + 1][machine_location]
    return route.remaining[position][location]


def part_view(task: PlanningTask,
              state: frozenset[int]) -> tuple[PartEntry, ...]:
    """Every part's :data:`PartEntry` in *state*, decoded from its atoms."""
    current: dict[int, int] = {}
    location: dict[int, int] = {}
    running: dict[int, tuple[int, int]] = {}  # part -> (step, machine loc)
    for ident in state:
        info = task.current_info.get(ident)
        if info is not None:
            current[info[0]] = info[1]
            continue
        info = task.at_info.get(ident)
        if info is not None:
            location[info[0]] = info[1]
            continue
        info = task.processing_info.get(ident)
        if info is not None:
            running[info[0]] = (info[1], info[2])
    view = []
    for part_index, route in enumerate(task.parts):
        position = current.get(part_index, len(route.steps))
        here = location.get(part_index, 0)
        active = running.get(part_index)
        view.append((_part_cost(route, position, here, active),
                     position, here, active))
    return tuple(view)


class SearchIndex:
    """Per-task tables that let one expansion touch only what changes.

    * **Successors by atom.** Each action is filed under one atom of
      its precondition: the one that the fewest actions share.
      :meth:`applicable` looks up the state's own atoms, so it tests
      a few dozen candidates instead of every ground action, and it
      yields them in ``task.actions`` order, the order a full scan
      would find them in.
    * **Effects by action.** Each action moves, starts or completes a
      step of exactly one part. Its effect on that part's
      :data:`PartEntry` is decoded once, and :meth:`advance` gives
      h(s') = h(s) − cost(p, s) + cost(p, s') for that part *p*.
    """

    def __init__(self, task: PlanningTask):
        self.parts = task.parts
        self.actions = task.actions
        sharing: dict[int, int] = {}
        for action in self.actions:
            for ident in action.pre:
                sharing[ident] = sharing.get(ident, 0) + 1
        self.by_atom: dict[int, list[int]] = {}
        for position, action in enumerate(self.actions):
            key = min(action.pre, key=sharing.__getitem__)
            self.by_atom.setdefault(key, []).append(position)
        self.effects = [_effect(task, action) for action in self.actions]

    def applicable(self, state: frozenset[int]) -> list[int]:
        """Positions in ``task.actions`` of the actions applicable in
        *state*, ascending."""
        by_atom = self.by_atom
        candidates: list[int] = []
        for ident in state:
            filed = by_atom.get(ident)
            if filed is not None:
                candidates.extend(filed)
        candidates.sort()
        actions = self.actions
        return [position for position in candidates
                if actions[position].pre <= state]

    def advance(self, position: int, view: tuple[PartEntry, ...],
                h: int) -> tuple[tuple[PartEntry, ...], int]:
        """The successor's part view and heuristic after the action at
        *position*, from the parent's *view* and heuristic *h*."""
        part, new_position, new_location, new_running, stops = \
            self.effects[position]
        cost, step, location, running = view[part]
        if new_position is not None:
            step = new_position
        if new_location is not None:
            location = new_location
        if stops:
            running = None
        if new_running is not None:
            running = new_running
        new_cost = _part_cost(self.parts[part], step, location, running)
        entry = (new_cost, step, location, running)
        return view[:part] + (entry,) + view[part + 1:], h - cost + new_cost


def _effect(task: PlanningTask, action: GroundAction
            ) -> tuple[int, int | None, int | None,
                       tuple[int, int] | None, bool]:
    """``(part, step position, location, running step, stops running)``
    that *action* sets; ``None`` leaves a field as it was."""
    parts: set[int] = set()
    position = location = running = None
    stops = False
    for ident in action.add:
        if ident in task.current_info:
            parts.add(task.current_info[ident][0])
            position = task.current_info[ident][1]
        elif ident in task.at_info:
            parts.add(task.at_info[ident][0])
            location = task.at_info[ident][1]
        elif ident in task.processing_info:
            part, step, machine_location = task.processing_info[ident]
            parts.add(part)
            running = (step, machine_location)
    for ident in action.delete:
        if ident in task.processing_info:
            parts.add(task.processing_info[ident][0])
            stops = True
    if len(parts) != 1:
        raise PlanningError(f"action {action.name!r} touches "
                            f"{len(parts)} parts; the search needs one")
    return parts.pop(), position, location, running, stops


def _tie_break(seed: int, state: frozenset[int], action_name: str) -> int:
    digest = hashlib.sha256(
        f"{seed}|{action_name}|{','.join(map(str, sorted(state)))}"
        .encode()).digest()
    return int.from_bytes(digest[:8], "big")


def solve(task: PlanningTask, *, strategy: str = "greedy", seed: int = 0,
          max_expansions: int = DEFAULT_MAX_EXPANSIONS) -> SearchResult:
    """Best-first forward search from ``task.init`` to ``task.goal``."""
    if strategy not in STRATEGIES:
        raise PlanningError(f"unknown strategy {strategy!r}; "
                            f"known: {', '.join(STRATEGIES)}")
    start = task.init
    if task.goal_reached(start):
        return SearchResult(actions=(), cost=0, expanded=0, generated=0,
                            strategy=strategy, seed=seed)
    index = SearchIndex(task)
    greedy = strategy == "greedy"
    # greedy carries each state's part view in its heap entry; the
    # unique counter keeps the view out of every comparison
    view = part_view(task, start) if greedy else ()
    counter = 0
    tie = _tie_break(seed, start, "<init>")
    frontier: list[tuple[int, int, int, frozenset[int],
                         tuple[PartEntry, ...]]] = [
        (sum(entry[0] for entry in view), tie, counter, start, view)]
    best_g: dict[frozenset[int], int] = {start: 0}
    parent: dict[frozenset[int], tuple[frozenset[int], GroundAction]] = {}
    expanded = 0
    generated = 0
    closed: set[frozenset[int]] = set()
    actions = task.actions
    while frontier:
        f, _, _, state, view = heapq.heappop(frontier)
        if state in closed:
            continue
        closed.add(state)
        if task.goal_reached(state):
            plan: list[GroundAction] = []
            cursor = state
            while cursor in parent:
                cursor, action = parent[cursor]
                plan.append(action)
            plan.reverse()
            return SearchResult(actions=tuple(plan), cost=len(plan),
                                expanded=expanded, generated=generated,
                                strategy=strategy, seed=seed)
        expanded += 1
        if expanded > max_expansions:
            raise PlanningError(
                f"search expanded more than {max_expansions} states "
                f"without reaching the goal ({strategy}, seed {seed})")
        g = best_g[state]
        for position in index.applicable(state):
            action = actions[position]
            successor = action.apply(state)
            if successor in closed:
                continue
            g_next = g + 1
            known = best_g.get(successor)
            if known is not None and known <= g_next:
                continue
            best_g[successor] = g_next
            parent[successor] = (state, action)
            generated += 1
            counter += 1
            if greedy:
                successor_view, f_next = index.advance(position, view, f)
            else:
                successor_view, f_next = view, g_next
            heapq.heappush(frontier, (
                f_next, _tie_break(seed, successor, action.name),
                counter, successor, successor_view))
    raise PlanningError(
        f"no plan exists for this task ({strategy}, seed {seed}, "
        f"{expanded} states expanded)")
