"""Unit tests for the bag-to-machine assignment helpers (Lemma-3 substrate)."""

from __future__ import annotations

from repro.flows import AssignmentProblem, solve_bag_assignment


class TestBagAssignment:
    def test_simple_satisfiable(self):
        problem = AssignmentProblem(
            demands={"A": 2, "B": 1},
            machine_capacities={0: 1, 1: 1, 2: 1},
            allowed={"A": [0, 1, 2], "B": [0, 1]},
        )
        result = solve_bag_assignment(problem)
        assert result.satisfied
        assert result.placed == 3
        assert len(result.assignment["A"]) == 2
        assert len(set(result.assignment["A"])) == 2  # distinct machines
        assert len(result.assignment["B"]) == 1

    def test_respects_allowed_machines(self):
        problem = AssignmentProblem(
            demands={"A": 2},
            machine_capacities={0: 2, 1: 2, 2: 2},
            allowed={"A": [0, 1]},
        )
        result = solve_bag_assignment(problem)
        assert result.satisfied
        assert set(result.assignment["A"]) <= {0, 1}

    def test_unsatisfiable_demand(self):
        problem = AssignmentProblem(
            demands={"A": 3},
            machine_capacities={0: 1, 1: 1},
            allowed={"A": [0, 1]},
        )
        result = solve_bag_assignment(problem)
        assert not result.satisfied
        assert result.placed == 2

    def test_capacity_limits(self):
        problem = AssignmentProblem(
            demands={"A": 1, "B": 1, "C": 1},
            machine_capacities={0: 1, 1: 1},
            allowed={"A": [0], "B": [0], "C": [1]},
        )
        result = solve_bag_assignment(problem)
        assert result.placed == 2  # machine 0 can only take one of A/B

    def test_total_demand(self):
        problem = AssignmentProblem(
            demands={"A": 2, "B": 3}, machine_capacities={}, allowed={}
        )
        assert problem.total_demand() == 5

    def test_at_most_one_item_per_group_per_machine(self):
        # Even with a large machine capacity, one group can place at most one
        # item per machine (unit group->machine edges mirror the bag rule).
        problem = AssignmentProblem(
            demands={"A": 3},
            machine_capacities={0: 10, 1: 10, 2: 10},
            allowed={"A": [0, 1, 2]},
        )
        result = solve_bag_assignment(problem)
        assert result.satisfied
        assert sorted(result.assignment["A"]) == [0, 1, 2]
