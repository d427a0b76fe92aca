"""The planner's heuristic, decoded from a whole state: the reference.

:func:`repro.planning.solve` never decodes a whole state; it carries
each part's view along the search and updates the heuristic by the one
part an action touches. This module keeps the plain definition that
``TestDeltaHeuristic`` holds the delta equal to at every generated
state.
"""

from repro.planning.planner import part_view
from repro.planning.task import PlanningTask


def heuristic(task: PlanningTask, state: frozenset[int]) -> int:
    """Sum of exact per-part independent remaining costs.

    Each part contributes its ``PartRoute.remaining`` table value (the
    optimal action count for the part alone) — admissible because
    every grounded action advances exactly one part and contention can
    only add actions. Crucially it admits **monotone descent**: from
    any non-goal state some action lowers it by exactly 1 (a running
    step can always complete; an idle-world part can always follow its
    own optimal policy), so greedy best-first expands ~plan-length
    states instead of wandering plateaus.
    """
    return sum(entry[0] for entry in part_view(task, state))
