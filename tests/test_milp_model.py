"""Unit tests for the MILP model builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InfeasibleModelError
from repro.milp import LinearModel, MilpSolution, Sense, SolutionStatus


class TestModelConstruction:
    def test_variables(self):
        model = LinearModel("m")
        model.add_variable("x", lower=1.0, upper=4.0, integer=True, objective=2.0)
        model.add_variable("y")
        assert model.num_variables == 2
        assert model.num_integer_variables == 1
        assert model.variables["x"].is_integer
        assert not model.variables["y"].is_integer

    def test_duplicate_variable_rejected(self):
        model = LinearModel()
        model.add_variable("x")
        with pytest.raises(ValueError):
            model.add_variable("x")

    def test_constraint_with_unknown_variable_rejected(self):
        model = LinearModel()
        model.add_variable("x")
        with pytest.raises(KeyError):
            model.add_le("c", {"z": 1.0}, 1.0)

    def test_duplicate_constraint_rejected(self):
        model = LinearModel()
        model.add_variable("x")
        model.add_le("c", {"x": 1.0}, 1.0)
        with pytest.raises(ValueError):
            model.add_ge("c", {"x": 1.0}, 0.0)

    def test_zero_coefficients_dropped(self):
        model = LinearModel()
        model.add_variable("x")
        model.add_variable("y")
        constraint = model.add_le("c", {"x": 1.0, "y": 0.0}, 1.0)
        assert "y" not in constraint.coefficients

    def test_set_objective_coefficient(self):
        model = LinearModel()
        model.add_variable("x", objective=1.0)
        model.set_objective_coefficient("x", 5.0)
        assert model.variables["x"].objective == 5.0

    def test_summary(self):
        model = LinearModel()
        model.add_variable("x", integer=True)
        model.add_variable("y")
        model.add_le("c", {"x": 1, "y": 1}, 2)
        assert model.summary() == {
            "variables": 2,
            "integer_variables": 1,
            "continuous_variables": 1,
            "constraints": 1,
        }


class TestCompilation:
    def test_compile_shapes(self):
        model = LinearModel()
        model.add_variable("x", integer=True, objective=1.0)
        model.add_variable("y", upper=3.0)
        model.add_le("c1", {"x": 2.0, "y": 1.0}, 10.0)
        model.add_ge("c2", {"x": 1.0}, 1.0)
        model.add_eq("c3", {"y": 1.0}, 2.0)
        compiled = model.compile()
        assert compiled.num_variables == 2
        assert compiled.num_integer_variables == 1
        assert compiled.a_ub.shape == (2, 2)  # LE + negated GE
        assert compiled.a_eq.shape == (1, 2)
        assert compiled.num_constraints == 3
        # GE constraints are negated into <= form.
        assert compiled.b_ub.tolist() == [10.0, -1.0]

    def test_check_solution(self):
        model = LinearModel()
        model.add_variable("x", integer=True, upper=5.0)
        model.add_ge("c", {"x": 1.0}, 2.0)
        assert model.check_solution({"x": 3.0}) == []
        violations = model.check_solution({"x": 0.5})
        assert any("not integral" in v for v in violations)
        assert any("c:" in v for v in violations)
        assert model.check_solution({"x": 7.0})  # above upper bound


class TestBulkInput:
    """add_columns / add_constraints against the one-at-a-time API."""

    @staticmethod
    def _columns(model: LinearModel) -> range:
        return model.add_columns(
            ["a", "b", "c"],
            integer=np.array([True, False, True]),
            objective=[1.0, 0.0, 2.0],
        )

    def test_bulk_columns_compile_like_scalar_ones(self):
        bulk, scalar = LinearModel(), LinearModel()
        assert self._columns(bulk) == range(0, 3)
        scalar.add_variable("a", integer=True, objective=1.0)
        scalar.add_variable("b")
        scalar.add_variable("c", integer=True, objective=2.0)
        assert bulk.add_columns(["d"], upper=4.0) == range(3, 4)
        scalar.add_variable("d", upper=4.0)
        assert bulk.variables == scalar.variables
        assert bulk.summary() == scalar.summary()
        compiled, expected = bulk.compile(), scalar.compile()
        assert compiled.variable_names == expected.variable_names == ("a", "b", "c", "d")
        for field in ("objective", "lower", "upper", "integrality"):
            assert np.array_equal(getattr(compiled, field), getattr(expected, field))

    def test_scalar_and_bulk_rows_compile_in_insertion_order(self):
        model = LinearModel()
        self._columns(model)
        model.add_le("first", {"a": 1.0}, 1.0)
        model.add_constraints(
            ["second", "third"], Sense.LE, [2.0, 3.0], row=[1, 0, 1], col=[0, 1, 2],
            value=[4.0, 5.0, 6.0],
        )
        model.add_le("fourth", {"c": 7.0}, 4.0)
        compiled = model.compile()
        assert compiled.b_ub.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert compiled.a_ub.toarray().tolist() == [
            [1.0, 0.0, 0.0],
            [0.0, 5.0, 0.0],
            [4.0, 0.0, 6.0],
            [0.0, 0.0, 7.0],
        ]
        names = [row.name for row in model.constraints]
        assert names == ["first", "second", "third", "fourth"]
        assert model.constraints[2].coefficients == {"a": 4.0, "c": 6.0}

    def test_ge_rows_are_negated_and_eq_rows_go_to_a_eq(self):
        model = LinearModel()
        self._columns(model)
        model.add_constraints(
            ["ge"], Sense.GE, [2.0], row=[0, 0], col=[0, 2], value=[1.0, 3.0]
        )
        model.add_eq("scalar_eq", {"b": 1.0}, 5.0)
        model.add_constraints(["eq"], Sense.EQ, [6.0], row=[0], col=[1], value=[2.0])
        model.add_ge("scalar_ge", {"a": 4.0}, 1.0)
        compiled = model.compile()
        assert compiled.b_ub.tolist() == [-2.0, -1.0]
        assert compiled.a_ub.toarray().tolist() == [[-1.0, 0.0, -3.0], [-4.0, 0.0, 0.0]]
        assert compiled.b_eq.tolist() == [5.0, 6.0]
        assert compiled.a_eq.toarray().tolist() == [[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]]
        assert compiled.num_constraints == model.num_constraints == 4

    def test_zero_coefficients_are_dropped_on_both_paths(self):
        model = LinearModel()
        self._columns(model)
        model.add_le("scalar", {"a": 0.0, "b": 1.0}, 1.0)
        model.add_constraints(
            ["bulk"], Sense.GE, [1.0], row=[0, 0, 0], col=[0, 1, 2], value=[0.0, 2.0, -0.0]
        )
        compiled = model.compile()
        assert compiled.a_ub.nnz == 2
        assert compiled.a_ub.indices.tolist() == [1, 1]
        assert [row.coefficients for row in model.constraints] == [{"b": 1.0}, {"b": 2.0}]

    def test_duplicate_names_raise(self):
        model = LinearModel()
        self._columns(model)
        with pytest.raises(ValueError):
            model.add_columns(["d", "a"])
        with pytest.raises(ValueError):
            model.add_columns(["d", "d"])
        with pytest.raises(ValueError):
            model.add_variable("c")
        model.add_le("taken", {"a": 1.0}, 1.0)
        for names in (["new", "taken"], ["twice", "twice"]):
            with pytest.raises(ValueError):
                model.add_constraints(names, Sense.LE, [0.0, 0.0], row=[], col=[], value=[])
        model.add_constraints(["bulk"], Sense.LE, [0.0], row=[0], col=[0], value=[1.0])
        with pytest.raises(ValueError):
            model.add_ge("bulk", {"a": 1.0}, 0.0)
        assert model.num_variables == 3 and model.num_constraints == 2

    def test_indices_out_of_range_raise(self):
        model = LinearModel()
        self._columns(model)
        for row, col in (([0], [3]), ([0], [-1]), ([1], [0]), ([-1], [0])):
            with pytest.raises(IndexError):
                model.add_constraints(["c"], Sense.LE, [1.0], row=row, col=col, value=[1.0])
        assert model.num_constraints == 0

    def test_length_mismatches_raise(self):
        model = LinearModel()
        self._columns(model)
        with pytest.raises(ValueError, match="rhs"):
            model.add_constraints(
                ["c", "d"], Sense.LE, [1.0], row=[0], col=[0], value=[1.0]
            )
        with pytest.raises(ValueError, match="one length"):
            model.add_constraints(
                ["c"], Sense.LE, [1.0], row=[0, 0], col=[0, 1], value=[1.0]
            )
        with pytest.raises(ValueError, match="objective"):
            model.add_columns(["d", "e"], objective=[1.0, 2.0, 3.0])
        assert model.num_constraints == 0 and model.num_variables == 3

    def test_a_pair_given_twice_raises_at_compile(self):
        model = LinearModel()
        self._columns(model)
        model.add_constraints(
            ["c"], Sense.LE, [1.0], row=[0, 0], col=[1, 1], value=[1.0, 2.0]
        )
        with pytest.raises(ValueError, match="twice"):
            model.compile()

    def test_summary_and_check_solution_see_bulk_rows(self):
        model = LinearModel()
        self._columns(model)
        model.add_constraints(
            ["cover", "cap"], Sense.GE, [2.0, -1.0], row=[0, 0, 1], col=[0, 2, 1],
            value=[1.0, 1.0, -1.0],
        )
        assert model.summary() == {
            "variables": 3,
            "integer_variables": 2,
            "continuous_variables": 1,
            "constraints": 2,
        }
        assert model.check_solution({"a": 1.0, "c": 1.0}) == []
        violations = model.check_solution({"a": 0.5, "b": 2.0})
        assert any(v.startswith("cover:") for v in violations)
        assert any(v.startswith("cap:") for v in violations)
        assert any("a = 0.5 not integral" in v for v in violations)


class TestMilpSolution:
    def test_integral_values(self):
        solution = MilpSolution(
            status=SolutionStatus.OPTIMAL,
            objective=1.0,
            x=np.array([2.0000000001]),
            names=("x",),
        )
        assert solution.integral_values() == {"x": 2}
        assert solution.is_feasible

    def test_integral_values_rejects_fractional(self):
        solution = MilpSolution(
            status=SolutionStatus.OPTIMAL, objective=1.0, x=np.array([2.5]), names=("x",)
        )
        with pytest.raises(InfeasibleModelError):
            solution.integral_values()

    def test_value_default(self):
        solution = MilpSolution(status=SolutionStatus.OPTIMAL, objective=0.0)
        assert solution.value("missing") == 0.0
        assert solution.value("missing", 3.0) == 3.0

    def test_values_are_the_column_array_by_name(self):
        solution = MilpSolution(
            status=SolutionStatus.OPTIMAL,
            objective=1.0,
            x=np.array([1.0, 2.5]),
            names=("a", "b"),
        )
        assert solution.values == {"a": 1.0, "b": 2.5}
        assert solution.value("b") == 2.5
        assert solution.value("c") == 0.0

    def test_solution_without_a_point(self):
        solution = MilpSolution(
            status=SolutionStatus.INFEASIBLE, objective=float("inf"), names=("x",)
        )
        assert solution.x.size == 0
        assert solution.values == {}
        assert solution.value("x") == 0.0
