"""OPC UA client grouping (the paper's resource optimization).

"The number of OPC UA clients connecting the machinery to the
architecture is minimized by connecting multiple machines to the same
client. This is done by grouping multiple machines by considering the
maximum number of variables and methods supported by each OPC UA client
module."

Implemented as bin packing over the machines' point counts (variables +
methods): first-fit-decreasing by default (byte-compatible with every
earlier release), best-fit-decreasing opt-in via
``PipelineOptions(grouping="best-fit")`` — never more clients than
first-fit, and ``O(log groups)`` per placement at mega-factory machine
counts. Machines larger than the capacity get a dedicated (oversized)
client, matching how the ICE lab deploys the conveyor line. The paper
does not disclose the capacity constant; ``DEFAULT_CLIENT_CAPACITY =
120`` reproduces the published result of 4 clients for the ICE-lab
inventory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa95.levels import MachineInfo

#: Max variables+methods per OPC UA client module (calibrated, see above).
DEFAULT_CLIENT_CAPACITY = 120


class GroupingError(ValueError):
    pass


@dataclass
class ClientGroup:
    """One OPC UA client module and the machines assigned to it."""

    index: int
    capacity: int
    machines: list[MachineInfo] = field(default_factory=list)
    oversized: bool = False

    @property
    def name(self) -> str:
        return f"opcua-client-{self.index:02d}"

    @property
    def points(self) -> int:
        return sum(m.point_count for m in self.machines)

    @property
    def utilization(self) -> float:
        return self.points / self.capacity if self.capacity else 0.0

    @property
    def machine_names(self) -> list[str]:
        return [m.name for m in self.machines]


#: Supported packing algorithms for :func:`group_machines`.
GROUPING_ALGORITHMS = ("first-fit", "best-fit")


def _pack_first_fit(ordered: list[MachineInfo],
                    capacity: int) -> tuple[list[ClientGroup], int]:
    """First-fit-decreasing: each machine goes to the earliest-created
    open group with room (the historical default; byte-compatible with
    every pre-option release)."""
    fit_checks = 0
    groups: list[ClientGroup] = []
    for machine in ordered:
        if machine.point_count > capacity:
            group = ClientGroup(index=0, capacity=capacity,
                                oversized=True)
            group.machines.append(machine)
            groups.append(group)
            continue
        placed = False
        for group in groups:
            if group.oversized:
                continue
            fit_checks += 1
            if group.points + machine.point_count <= capacity:
                group.machines.append(machine)
                placed = True
                break
        if not placed:
            group = ClientGroup(index=0, capacity=capacity)
            group.machines.append(machine)
            groups.append(group)
    return groups, fit_checks


def _pack_best_fit(ordered: list[MachineInfo],
                   capacity: int) -> tuple[list[ClientGroup], int]:
    """Best-fit-decreasing: each machine goes to the open group with the
    *smallest* residual capacity that still fits it.

    Deterministic tie-breaks: equal residuals go to the earliest-created
    group. The open groups live in a bisect-sorted ``(residual,
    creation_order)`` list, so each placement is ``O(log groups)``
    instead of first-fit's linear scan — the part that matters at
    mega-factory machine counts.
    """
    import bisect
    fit_checks = 0
    groups: list[ClientGroup] = []
    open_keys: list[tuple[int, int]] = []  # sorted (residual, order)
    for machine in ordered:
        size = machine.point_count
        if size > capacity:
            group = ClientGroup(index=0, capacity=capacity,
                                oversized=True)
            group.machines.append(machine)
            groups.append(group)
            continue
        fit_checks += 1
        # smallest residual >= size; ties resolve to the lowest
        # creation order because the keys sort lexicographically
        at = bisect.bisect_left(open_keys, (size, -1))
        if at < len(open_keys):
            residual, order = open_keys.pop(at)
            group = groups[order]
            group.machines.append(machine)
            bisect.insort(open_keys, (residual - size, order))
        else:
            group = ClientGroup(index=0, capacity=capacity)
            group.machines.append(machine)
            bisect.insort(open_keys, (capacity - size, len(groups)))
            groups.append(group)
    return groups, fit_checks


def group_machines(machines: list[MachineInfo],
                   capacity: int = DEFAULT_CLIENT_CAPACITY,
                   *, algorithm: str = "first-fit") -> list[ClientGroup]:
    """Bin-pack machines onto client modules.

    *algorithm* selects the packing: ``"first-fit"`` (the default,
    byte-compatible first-fit-decreasing) or ``"best-fit"``
    (best-fit-decreasing, guaranteed to never use more clients than
    first-fit: when its packing does not already hit
    :func:`lower_bound_clients`, the first-fit packing is computed too
    and the smaller of the two wins, first-fit breaking ties losing).

    Deterministic either way: ties in point count break on machine
    name, ties in residual capacity break on group creation order.
    Machines exceeding *capacity* each get their own oversized client.
    """
    if capacity <= 0:
        raise GroupingError(f"capacity must be positive, got {capacity}")
    if algorithm not in GROUPING_ALGORITHMS:
        raise GroupingError(
            f"unknown grouping algorithm {algorithm!r} "
            f"(expected one of {', '.join(GROUPING_ALGORITHMS)})")
    from ..obs import span as _span
    with _span("grouping") as s:
        ordered = sorted(machines, key=lambda m: (-m.point_count, m.name))
        if algorithm == "best-fit":
            groups, fit_checks = _pack_best_fit(ordered, capacity)
            if len(groups) > lower_bound_clients(machines, capacity):
                fallback, extra = _pack_first_fit(ordered, capacity)
                fit_checks += extra
                if len(fallback) < len(groups):
                    groups = fallback
        else:
            groups, fit_checks = _pack_first_fit(ordered, capacity)
        for index, group in enumerate(groups, start=1):
            group.index = index
        if s.enabled:
            s.set("machines", len(machines))
            s.set("capacity", capacity)
            s.set("algorithm", algorithm)
            s.set("groups", len(groups))
            s.set("oversized",
                  sum(1 for g in groups if g.oversized))
            s.set("fit_checks", fit_checks)
    return groups


def grouping_signature(machines: list[MachineInfo], capacity: int) -> tuple:
    """Exactly the inputs the pipeline's :func:`group_machines` call
    reads: the capacity and each machine's (name, point count).
    Anything else — variable renames, driver parameters, hierarchy
    labels — cannot move a machine between groups, so equal signatures
    mean equal membership."""
    return (capacity,
            tuple(sorted((m.name, m.point_count) for m in machines)))


def grouping_stats(groups: list[ClientGroup]) -> dict[str, object]:
    """Summary statistics used by the ablation bench."""
    if not groups:
        return {"clients": 0, "mean_utilization": 0.0,
                "oversized_clients": 0, "total_points": 0}
    regular = [g for g in groups if not g.oversized]
    return {
        "clients": len(groups),
        "oversized_clients": sum(1 for g in groups if g.oversized),
        "total_points": sum(g.points for g in groups),
        "mean_utilization": (sum(g.utilization for g in regular)
                             / len(regular)) if regular else 0.0,
        "max_points": max(g.points for g in groups),
        "min_points": min(g.points for g in groups),
    }


def lower_bound_clients(machines: list[MachineInfo], capacity: int) -> int:
    """Information-theoretic lower bound on the number of clients."""
    if capacity <= 0:
        raise GroupingError(f"capacity must be positive, got {capacity}")
    total = sum(m.point_count for m in machines)
    oversized = sum(1 for m in machines if m.point_count > capacity)
    oversized_points = sum(m.point_count for m in machines
                           if m.point_count > capacity)
    remaining = total - oversized_points
    import math
    return oversized + math.ceil(remaining / capacity)
