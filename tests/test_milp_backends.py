"""Tests for the HiGHS backend and the own branch-and-bound solver.

The two backends are cross-checked against each other on random MILPs — this
is the "own substrate validates the external oracle" test from DESIGN.md.
"""

from __future__ import annotations

import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.milp import (
    BranchAndBoundConfig,
    LinearModel,
    Sense,
    SolutionStatus,
    scipy_backend,
    solve_lp_relaxation,
    solve_with_branch_and_bound,
    solve_with_scipy,
)
from repro.solver import get_solver_service

from helpers import build_model


def _knapsack_model(values, weights, capacity) -> LinearModel:
    # Minimise the negated value = maximise value.
    columns = {
        f"x_{index}": {"integer": True, "upper": 1.0, "objective": -float(value)}
        for index, value in enumerate(values)
    }
    capacity_row = {f"x_{index}": float(weight) for index, weight in enumerate(weights)}
    return build_model(
        columns, [("capacity", Sense.LE, capacity_row, float(capacity))], name="knapsack"
    )


def _one_integer_column(rhs: float) -> LinearModel:
    """min x subject to x >= rhs, x integer."""
    return build_model(
        {"x": {"integer": True, "objective": 1.0}}, [("c", Sense.GE, {"x": 1.0}, rhs)]
    )


def _unsatisfiable(integer: bool) -> LinearModel:
    """x <= 1 and x >= 2."""
    return build_model(
        {"x": {"integer": integer, "upper": 1.0}}, [("c", Sense.GE, {"x": 1.0}, 2.0)]
    )


class TestScipyBackend:
    def test_simple_integer_program(self):
        solution = solve_with_scipy(_one_integer_column(2.5))
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.x[0] == pytest.approx(3.0)

    def test_infeasible_detected(self):
        solution = solve_with_scipy(_unsatisfiable(integer=False))
        assert solution.status is SolutionStatus.INFEASIBLE
        assert not solution.is_feasible

    def test_empty_model(self):
        assert solve_with_scipy(LinearModel()).status is SolutionStatus.OPTIMAL

    def test_lp_relaxation_relaxes_integrality(self):
        relaxed = solve_lp_relaxation(_one_integer_column(2.5))
        assert relaxed.x[0] == pytest.approx(2.5)

    def test_lp_relaxation_with_branching_overrides(self):
        compiled = _one_integer_column(2.5).compile()
        forced_up = solve_lp_relaxation(compiled, extra_lower={0: 3.0})
        assert forced_up.x[0] == pytest.approx(3.0)
        forced_down = solve_lp_relaxation(compiled, extra_upper={0: 2.0})
        assert forced_down.status is SolutionStatus.INFEASIBLE


class TestBranchAndBound:
    def test_matches_scipy_on_knapsack(self):
        model = _knapsack_model([6, 5, 4], [4, 3, 2], 5)
        ours = solve_with_branch_and_bound(model)
        scipys = solve_with_scipy(model)
        assert ours.status is SolutionStatus.OPTIMAL
        assert ours.objective == pytest.approx(scipys.objective)

    def test_infeasible(self):
        model = _unsatisfiable(integer=True)
        assert solve_with_branch_and_bound(model).status is SolutionStatus.INFEASIBLE

    def test_node_limit(self):
        model = _knapsack_model(list(range(1, 12)), list(range(1, 12)), 20)
        config = BranchAndBoundConfig(max_nodes=1)
        solution = solve_with_branch_and_bound(model, config)
        assert solution.status in (SolutionStatus.LIMIT, SolutionStatus.FEASIBLE, SolutionStatus.OPTIMAL)

    def test_diagnostics_reported(self):
        model = _knapsack_model([3, 2, 2], [2, 1, 1], 2)
        solution = solve_with_branch_and_bound(model)
        assert solution.diagnostics["backend"] == "own-branch-and-bound"
        assert solution.diagnostics["lp_solves"] >= 1

    @pytest.mark.parametrize("seed", range(6))
    def test_cross_check_random_knapsacks(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(4, 9))
        values = rng.integers(1, 20, size=size).tolist()
        weights = rng.integers(1, 10, size=size).tolist()
        capacity = int(sum(weights) * 0.4) + 1
        model = _knapsack_model(values, weights, capacity)
        ours = solve_with_branch_and_bound(model)
        scipys = solve_with_scipy(model)
        assert ours.objective == pytest.approx(scipys.objective, abs=1e-6)


class TestSolveModelDispatch:
    def test_backend_names(self):
        model = _one_integer_column(1.5)
        service = get_solver_service()
        assert service.solve(model, spec="scipy").x[0] == pytest.approx(2.0)
        assert service.solve(model, spec="bnb").x[0] == pytest.approx(2.0)
        assert service.solve(model, spec="lp").x[0] == pytest.approx(1.5)

    def test_lp_backend_honours_the_time_limit(self):
        # Two columns: HiGHS presolve solves a one-column model before it
        # checks the time limit.
        model = build_model(
            {"x": {"objective": 1.0}, "y": {"objective": 1.0}},
            [("c", Sense.GE, {"x": 1.0, "y": 1.0}, 1.5)],
        )
        service = get_solver_service()
        assert service.solve(model, spec="lp", time_limit=0.0).status is SolutionStatus.LIMIT
        assert service.solve(model, spec="lp").status is SolutionStatus.OPTIMAL

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown MILP backend 'gurobi'"):
            get_solver_service().solve(LinearModel(), spec="gurobi")


@pytest.fixture
def milp_calls(monkeypatch):
    """Record every ``optimize.milp`` call of the backend: (is_mip, options)."""
    calls: list[tuple[bool, dict]] = []
    real = optimize.milp

    def spy(*args, **kwargs):
        is_mip = bool(np.any(kwargs.get("integrality", 0)))
        calls.append((is_mip, dict(kwargs.get("options") or {})))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy_backend.optimize, "milp", spy)
    return calls


def _totally_unimodular_model() -> LinearModel:
    """Cover three consecutive-ones rows at least cost: the LP optimum is integral."""
    columns = {
        f"x_{index}": {"integer": True, "upper": 5.0, "objective": cost}
        for index, cost in enumerate([3.0, 2.0, 4.0, 1.0])
    }
    rows = [
        ("r0", Sense.GE, {"x_0": 1.0, "x_1": 1.0}, 2.0),
        ("r1", Sense.GE, {"x_1": 1.0, "x_2": 1.0}, 3.0),
        ("r2", Sense.GE, {"x_2": 1.0, "x_3": 1.0}, 1.0),
    ]
    return build_model(columns, rows, name="interval-cover")


class TestLpFirst:
    def test_integral_lp_answers_without_the_milp(self, milp_calls):
        model = _totally_unimodular_model()
        solution = solve_with_scipy(model)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.diagnostics["lp_relaxation"] == "integral"
        assert solution.diagnostics["mip_node_count"] == 0
        assert solution.diagnostics["mip_gap"] == 0.0
        assert solution.objective == solution.diagnostics["lp_objective"] == pytest.approx(7.0)
        assert [is_mip for is_mip, _ in milp_calls] == [False]
        assert model.check_solution(solution.x) == []
        assert all(value == round(value) for value in solution.x.tolist())

    def test_fractional_lp_falls_through_to_the_milp(self, milp_calls):
        model = _knapsack_model([6, 5, 4], [4, 3, 2], 6)
        solution = solve_with_scipy(model)
        assert solution.diagnostics["lp_relaxation"] == "fractional"
        assert solution.diagnostics["lp_objective"] < solution.objective
        assert [is_mip for is_mip, _ in milp_calls] == [False, True]
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(solve_with_branch_and_bound(model).objective)

    def test_infeasible_lp_is_a_certificate(self, milp_calls):
        model = build_model(
            {
                "x": {"integer": True, "upper": 1.0, "objective": 1.0},
                "y": {"integer": True, "upper": 1.0, "objective": 1.0},
            },
            [("c", Sense.GE, {"x": 1.0, "y": 1.0}, 3.0)],
        )
        solution = solve_with_scipy(model)
        assert solution.status is SolutionStatus.INFEASIBLE
        assert solution.diagnostics["lp_relaxation"] == "infeasible"
        assert solution.diagnostics["lp_objective"] is None
        assert [is_mip for is_mip, _ in milp_calls] == [False]

    def test_the_milp_gets_the_time_the_lp_left(self, milp_calls):
        model = _knapsack_model([6, 5, 4], [4, 3, 2], 6)
        solution = solve_with_scipy(model, time_limit=50.0, node_limit=7)
        (_, lp_options), (_, milp_options) = milp_calls
        assert lp_options == {"time_limit": 50.0}
        assert milp_options["time_limit"] == 50.0 - solution.diagnostics["lp_s"]
        assert milp_options["node_limit"] == 7
        # HiGHS's default gap is 1e-4: OPTIMAL is exact only with gap 0.
        assert milp_options["mip_rel_gap"] == 0.0

    def test_an_exhausted_budget_returns_limit(self, milp_calls, monkeypatch):
        clock = iter([0.0, 2.0])
        monkeypatch.setattr(
            scipy_backend, "time", types.SimpleNamespace(perf_counter=lambda: next(clock))
        )
        model = _knapsack_model([6, 5, 4], [4, 3, 2], 6)
        solution = solve_with_scipy(model, time_limit=1.0)
        assert solution.status is SolutionStatus.LIMIT
        assert solution.diagnostics["lp_relaxation"] == "fractional"
        assert solution.diagnostics["lp_s"] == 2.0
        assert [is_mip for is_mip, _ in milp_calls] == [False]

    def test_lp_stopped_by_the_time_limit_returns_limit(self, milp_calls):
        model = build_model(
            {"x": {"integer": True, "objective": 1.0}, "y": {"integer": True, "objective": 1.0}},
            [("c", Sense.GE, {"x": 1.0, "y": 1.0}, 1.5)],
        )
        solution = solve_with_scipy(model, time_limit=0.0)
        assert solution.status is SolutionStatus.LIMIT
        assert solution.diagnostics["lp_relaxation"] == "limit"
        assert [is_mip for is_mip, _ in milp_calls] == [False]

    def test_a_continuous_model_is_solved_once(self, milp_calls):
        model = build_model({"x": {"objective": 1.0}}, [("c", Sense.GE, {"x": 1.0}, 2.5)])
        solution = solve_with_scipy(model)
        assert solution.x[0] == pytest.approx(2.5)
        assert "lp_relaxation" not in solution.diagnostics
        assert len(milp_calls) == 1

    def test_only_options_scipy_supports(self):
        integral = _totally_unimodular_model()
        fractional = _knapsack_model([6, 5, 4], [4, 3, 2], 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_with_scipy(integral, time_limit=30.0, node_limit=10).is_feasible
            assert solve_with_scipy(fractional, time_limit=30.0, node_limit=10).is_feasible
            assert solve_lp_relaxation(fractional, time_limit=30.0).is_feasible


@st.composite
def _small_milps(draw) -> LinearModel:
    """A random covering (min, >=) or packing (max, <=) MILP on a few columns.

    With ``interval`` rows (consecutive ones) the matrix is totally
    unimodular, so the LP optimum is integral and LP-first answers; other
    draws usually need the MILP.
    """
    num_vars = draw(st.integers(1, 5))
    num_rows = draw(st.integers(1, 4))
    covering = draw(st.booleans())
    interval = draw(st.booleans())
    columns = {}
    for index in range(num_vars):
        cost = draw(st.integers(1, 9))
        upper = draw(st.integers(1, 4))
        objective = float(cost if covering else -cost)
        columns[f"x_{index}"] = {"integer": True, "upper": float(upper), "objective": objective}
    rows = []
    for row in range(num_rows):
        if interval:
            first = draw(st.integers(0, num_vars - 1))
            last = draw(st.integers(first, num_vars - 1))
            coefficients = {f"x_{index}": 1.0 for index in range(first, last + 1)}
        else:
            weights = draw(st.lists(st.integers(0, 5), min_size=num_vars, max_size=num_vars))
            coefficients = {
                f"x_{index}": float(weight) for index, weight in enumerate(weights) if weight
            }
        rhs = float(draw(st.integers(0, 12)))
        rows.append((f"r_{row}", Sense.GE if covering else Sense.LE, coefficients, rhs))
    return build_model(columns, rows, name="covering" if covering else "packing")


class TestLpFirstAgainstBranchAndBound:
    @settings(max_examples=150, deadline=None)
    @given(_small_milps())
    def test_same_status_and_objective(self, model):
        ours = solve_with_scipy(model)
        reference = solve_with_branch_and_bound(model)
        assert ours.status is reference.status
        if ours.status is SolutionStatus.OPTIMAL:
            assert ours.objective == pytest.approx(reference.objective, abs=1e-6)
            assert model.check_solution(ours.x) == []
