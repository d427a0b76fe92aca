"""The deterministic forward search: optimality, determinism, bounds."""

import pytest

from repro.icelab import icelab_sources
from repro.isa95 import extract_topology
from repro.planning import FactoryDomain, PlanningError, build_task, solve
from repro.planning.planner import SearchIndex, part_view
from repro.sim import generate_workload
from repro.sysml import load_model

from .heuristic_reference import heuristic


@pytest.fixture(scope="module")
def topology():
    return extract_topology(load_model(*icelab_sources()))


@pytest.fixture(scope="module")
def task(topology):
    domain = FactoryDomain(topology)
    return build_task(domain, generate_workload(topology, seed=7, jobs=4))


class TestSearch:
    def test_plan_reaches_the_goal(self, task):
        result = solve(task)
        state = task.init
        for action in result.actions:
            assert action.applicable(state), action.name
            state = action.apply(state)
        assert task.goal_reached(state)

    def test_greedy_matches_uniform_cost(self, topology):
        # the per-part DP heuristic admits monotone descent, so greedy
        # walks straight downhill: its plan cost equals the optimum.
        # uniform-cost is only tractable on small instances (its
        # frontier explodes combinatorially — why greedy is default)
        domain = FactoryDomain(topology)
        small = build_task(domain,
                           generate_workload(topology, seed=7, jobs=2))
        greedy = solve(small, strategy="greedy")
        uniform = solve(small, strategy="uniform")
        assert greedy.cost == uniform.cost
        # ...and h(init) is that optimum (admissible + achieved)
        assert heuristic(small, small.init) == greedy.cost

    def test_greedy_expands_one_state_per_action(self, task):
        result = solve(task, strategy="greedy")
        assert result.expanded == result.cost

    def test_repeat_runs_identical(self, task):
        plans = [tuple(a.name for a in solve(task, seed=5).actions)
                 for _ in range(2)]
        assert plans[0] == plans[1]

    def test_seed_changes_path_not_cost(self, task):
        base = solve(task, seed=0)
        other = solve(task, seed=99)
        assert base.cost == other.cost
        assert [a.name for a in base.actions] \
            != [a.name for a in other.actions]

    def test_unknown_strategy_rejected(self, task):
        with pytest.raises(PlanningError, match="unknown strategy"):
            solve(task, strategy="astar")

    def test_expansion_ceiling_fails_loudly(self, task):
        with pytest.raises(PlanningError, match="expanded more than"):
            solve(task, strategy="uniform", max_expansions=3)

    def test_empty_goal_is_trivially_solved(self, topology):
        domain = FactoryDomain(topology)
        workload = generate_workload(topology, seed=7, jobs=4)
        task = build_task(domain, workload)
        task.goal = frozenset()  # degenerate: already satisfied
        result = solve(task)
        assert result.actions == ()
        assert result.cost == 0


class TestHeuristic:
    def test_initial_value_counts_starts_and_moves(self, task):
        # every kept step needs a start+complete pair; h(init) >= 2*steps
        total_steps = sum(len(route.steps) for route in task.parts)
        assert heuristic(task, task.init) >= 2 * total_steps

    def test_zero_exactly_at_goal_states(self, task):
        result = solve(task)
        state = task.init
        for action in result.actions:
            state = action.apply(state)
        assert heuristic(task, state) == 0

    def test_descends_by_one_along_the_plan(self, task):
        # monotone descent is the property that keeps greedy linear
        result = solve(task, strategy="greedy")
        value = heuristic(task, task.init)
        state = task.init
        for action in result.actions:
            state = action.apply(state)
            next_value = heuristic(task, state)
            assert next_value == value - 1, action.name
            value = next_value


def _corpus_topologies():
    from repro.testkit.corpus import CorpusConfig, generate_scenario
    from repro.testkit.scale import mega_factory_sources
    cases = [("icelab", icelab_sources()),
             ("mega-x2", mega_factory_sources(2))]
    for hostile in (False, True):
        for seed in range(6):
            scenario = generate_scenario(seed, CorpusConfig(hostile=hostile))
            label = f"{'hostile' if hostile else 'tame'}-{seed}"
            cases.append((label, scenario.sources))
    for label, sources in cases:
        topology = extract_topology(load_model(*sources))
        if topology.service_inventory():
            yield label, topology


@pytest.fixture(scope="module")
def corpus_tasks():
    tasks = []
    for label, topology in _corpus_topologies():
        domain = FactoryDomain(topology)
        for seed, jobs in ((7, 2), (11, 4)):
            tasks.append((f"{label}/seed{seed}", build_task(
                domain, generate_workload(topology, seed=seed, jobs=jobs))))
    return tasks


class TestDeltaHeuristic:
    """``solve`` keeps h by delta and finds successors through an atom
    index; both must agree with the reference definitions at every
    state a greedy search generates."""

    def test_corpus_covers_tame_and_hostile(self, corpus_tasks):
        for kind in ("icelab/", "mega-x2/", "tame-", "hostile-"):
            assert any(label.startswith(kind) for label, _ in corpus_tasks)

    def test_delta_matches_reference_at_every_generated_state(
            self, corpus_tasks):
        checked = 0
        for label, task in corpus_tasks:
            index = SearchIndex(task)
            state = task.init
            view = part_view(task, state)
            h = heuristic(task, state)
            # greedy expands exactly the states along its plan, so
            # their successors are every state the search generates
            for action in solve(task).actions:
                full_scan = [position for position, candidate
                             in enumerate(task.actions)
                             if candidate.applicable(state)]
                assert index.applicable(state) == full_scan, label
                for position in full_scan:
                    successor = task.actions[position].apply(state)
                    successor_view, successor_h = index.advance(
                        position, view, h)
                    assert successor_h == heuristic(task, successor), (
                        label, task.actions[position].name)
                    assert successor_view == part_view(task, successor)
                    checked += 1
                position = task.actions.index(action)
                state = action.apply(state)
                view, h = index.advance(position, view, h)
            assert h == 0 and task.goal_reached(state), label
        assert checked > 1000
