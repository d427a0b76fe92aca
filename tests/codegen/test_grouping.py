"""Client-grouping (bin packing) tests, including hypothesis invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import (DEFAULT_CLIENT_CAPACITY, GroupingError,
                           group_machines, grouping_stats,
                           lower_bound_clients)
from repro.isa95.levels import MachineInfo, ServiceSpec, VariableSpec


def machine(name, variables, services, workcell="wc"):
    return MachineInfo(
        name=name, type_name="T", workcell=workcell,
        variables=[VariableSpec(f"{name}_v{i}") for i in range(variables)],
        services=[ServiceSpec(f"{name}_s{i}") for i in range(services)])


ICE_POINTS = {"spea": (3, 5), "emco": (34, 19), "ur5": (99, 4),
              "siemensPlc": (26, 8), "fiam": (12, 3), "qcPc": (13, 2),
              "warehouse": (5, 3), "conveyor": (296, 10),
              "kairos1": (5, 6), "kairos2": (5, 6)}


def ice_machines():
    return [machine(name, v, s) for name, (v, s) in ICE_POINTS.items()]


class TestIceLabGrouping:
    def test_paper_result_four_clients(self):
        groups = group_machines(ice_machines(), DEFAULT_CLIENT_CAPACITY)
        assert len(groups) == 4  # Table I: 4 OPC UA clients

    def test_conveyor_gets_dedicated_oversized_client(self):
        groups = group_machines(ice_machines(), DEFAULT_CLIENT_CAPACITY)
        oversized = [g for g in groups if g.oversized]
        assert len(oversized) == 1
        assert oversized[0].machine_names == ["conveyor"]

    def test_every_machine_assigned_once(self):
        groups = group_machines(ice_machines(), DEFAULT_CLIENT_CAPACITY)
        assigned = [name for g in groups for name in g.machine_names]
        assert sorted(assigned) == sorted(ICE_POINTS)

    def test_group_names_and_indexes(self):
        groups = group_machines(ice_machines(), DEFAULT_CLIENT_CAPACITY)
        assert [g.index for g in groups] == [1, 2, 3, 4]
        assert groups[0].name == "opcua-client-01"

    def test_deterministic(self):
        a = group_machines(ice_machines(), 120)
        b = group_machines(list(reversed(ice_machines())), 120)
        assert [g.machine_names for g in a] == [g.machine_names for g in b]


class TestCapacitySweep:
    def test_huge_capacity_single_client(self):
        groups = group_machines(ice_machines(), 10_000)
        assert len(groups) == 1

    def test_tiny_capacity_one_client_per_machine(self):
        groups = group_machines(ice_machines(), 1)
        assert len(groups) == len(ICE_POINTS)
        assert all(g.oversized for g in groups
                   if g.points > 1)

    def test_client_count_monotone_in_capacity(self):
        machines = ice_machines()
        counts = [len(group_machines(machines, c))
                  for c in (40, 80, 120, 160, 320, 640)]
        assert counts == sorted(counts, reverse=True)

    def test_zero_capacity_rejected(self):
        with pytest.raises(GroupingError):
            group_machines(ice_machines(), 0)
        with pytest.raises(GroupingError):
            lower_bound_clients(ice_machines(), -1)

    @pytest.mark.parametrize("capacity", [0, -1, -120])
    def test_nonpositive_capacity_is_a_clear_valueerror(self, capacity):
        """Regression: capacity <= 0 must raise ValueError with an
        actionable message, never loop or emit degenerate groupings."""
        with pytest.raises(ValueError,
                           match=f"capacity must be positive, got {capacity}"):
            group_machines(ice_machines(), capacity)

    def test_unknown_algorithm_rejected(self):
        # first-fit is the only packer
        for algorithm in ("worst-fit", "best-fit"):
            with pytest.raises(GroupingError,
                               match="unknown grouping algorithm"):
                group_machines(ice_machines(), 120, algorithm=algorithm)


class TestEdgeCases:
    """Boundary inputs the conformance harness's grouping oracle
    asserts over random corpora — pinned here as named cases."""

    def test_capacity_exactly_met_is_not_oversized(self):
        # 7 variables + 3 services == capacity 10: fits in one client
        groups = group_machines([machine("m", 7, 3)], 10)
        assert len(groups) == 1
        assert groups[0].points == 10
        assert not groups[0].oversized

    def test_two_machines_exactly_filling_share_a_client(self):
        groups = group_machines(
            [machine("a", 6, 0), machine("b", 4, 0)], 10)
        assert len(groups) == 1
        assert groups[0].points == 10

    def test_one_point_over_capacity_is_an_oversized_singleton(self):
        groups = group_machines(
            [machine("big", 11, 0), machine("small", 1, 0)], 10)
        oversized = [g for g in groups if g.oversized]
        assert len(oversized) == 1
        assert oversized[0].machine_names == ["big"]
        assert oversized[0].points == 11
        assert len(oversized[0].machines) == 1

    def test_zero_point_machine_still_assigned(self):
        groups = group_machines(
            [machine("idle", 0, 0), machine("busy", 5, 0)], 10)
        assigned = [name for g in groups for name in g.machine_names]
        assert sorted(assigned) == ["busy", "idle"]

    def test_all_zero_point_machines_fit_one_client(self):
        machines = [machine(f"m{i}", 0, 0) for i in range(5)]
        groups = group_machines(machines, 1)
        assert len(groups) == 1
        assert groups[0].points == 0

    def test_equal_points_tie_broken_by_name(self):
        """FFD must order equal-sized machines deterministically, so
        shuffling the input cannot change the assignment."""
        machines = [machine(name, 5, 0) for name in
                    ("delta", "alpha", "charlie", "bravo")]
        a = group_machines(machines, 10)
        b = group_machines(list(reversed(machines)), 10)
        assert [g.machine_names for g in a] == [g.machine_names for g in b]
        assert [g.machine_names for g in a] == [
            ["alpha", "bravo"], ["charlie", "delta"]]

    def test_indices_sequential_from_one(self):
        groups = group_machines(
            [machine(f"m{i}", 9, 0) for i in range(5)], 10)
        assert [g.index for g in groups] == list(
            range(1, len(groups) + 1))
        assert [g.name for g in groups] == [
            f"opcua-client-{i:02d}" for i in range(1, len(groups) + 1)]


class TestStats:
    def test_stats_fields(self):
        groups = group_machines(ice_machines(), 120)
        stats = grouping_stats(groups)
        assert stats["clients"] == 4
        assert stats["oversized_clients"] == 1
        assert stats["total_points"] == 564
        assert 0 < stats["mean_utilization"] <= 1

    def test_empty_stats(self):
        assert grouping_stats([])["clients"] == 0

    def test_lower_bound(self):
        machines = ice_machines()
        bound = lower_bound_clients(machines, 120)
        assert len(group_machines(machines, 120)) >= bound
        # FFD is within a small constant of optimal for this inventory
        assert len(group_machines(machines, 120)) <= bound + 1


@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("algorithm", ["first-fit"])
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 10)),
                min_size=1, max_size=30),
       st.integers(min_value=5, max_value=200))
def test_grouping_invariants(algorithm, sizes, capacity):
    machines = [machine(f"m{i}", v, s) for i, (v, s) in enumerate(sizes)]
    groups = group_machines(machines, capacity, algorithm=algorithm)
    # every machine appears exactly once
    assigned = sorted(name for g in groups for name in g.machine_names)
    assert assigned == sorted(m.name for m in machines)
    # capacity respected for non-oversized groups
    for group in groups:
        if not group.oversized:
            assert group.points <= capacity
        else:
            assert len(group.machines) == 1
            assert group.machines[0].point_count > capacity
    # never worse than one client per machine, never better than bound
    assert len(groups) <= len(machines)
    assert len(groups) >= lower_bound_clients(machines, capacity) - 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 10)),
                min_size=1, max_size=30),
       st.integers(min_value=5, max_value=200))
def test_first_fit_deterministic_under_input_order(sizes, capacity):
    machines = [machine(f"m{i}", v, s) for i, (v, s) in enumerate(sizes)]
    a = group_machines(machines, capacity)
    b = group_machines(list(reversed(machines)), capacity)
    assert [g.machine_names for g in a] == [g.machine_names for g in b]
