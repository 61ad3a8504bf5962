"""Unit tests for the MILP model builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.milp import LinearModel, MilpSolution, Sense, SolutionStatus

from helpers import build_model


class TestModelConstruction:
    def test_variables(self):
        model = LinearModel("m")
        columns = model.add_columns(["x"], lower=1.0, upper=4.0, integer=True, objective=2.0)
        assert columns == range(1)
        assert model.add_columns(["y"]) == range(1, 2)
        assert model.num_variables == 2
        assert model.num_integer_variables == 1
        compiled = model.compile()
        assert compiled.variable_names == ("x", "y")
        assert compiled.integrality.tolist() == [1, 0]
        assert compiled.lower.tolist() == [1.0, 0.0]
        assert compiled.upper.tolist() == [4.0, np.inf]
        assert compiled.objective.tolist() == [2.0, 0.0]

    def test_duplicate_variable_rejected(self):
        model = LinearModel()
        model.add_columns(["x"])
        with pytest.raises(ValueError):
            model.add_columns(["x"])

    def test_constraint_with_unknown_variable_rejected(self):
        model = LinearModel()
        model.add_columns(["x"])
        with pytest.raises(IndexError):
            model.add_constraints(["c"], Sense.LE, [1.0], row=[0], col=[1], value=[1.0])

    def test_duplicate_constraint_rejected(self):
        model = build_model({"x": {}}, [("c", Sense.LE, {"x": 1.0}, 1.0)])
        with pytest.raises(ValueError):
            model.add_constraints(["c"], Sense.GE, [0.0], row=[0], col=[0], value=[1.0])

    def test_zero_coefficients_dropped(self):
        model = build_model({"x": {}, "y": {}}, [("c", Sense.LE, {"x": 1.0, "y": 0.0}, 1.0)])
        compiled = model.compile()
        assert compiled.a_ub.nnz == 1
        assert compiled.a_ub.indices.tolist() == [0]

    def test_summary(self):
        model = build_model(
            {"x": {"integer": True}, "y": {}}, [("c", Sense.LE, {"x": 1, "y": 1}, 2)]
        )
        assert model.summary() == {
            "variables": 2,
            "integer_variables": 1,
            "continuous_variables": 1,
            "constraints": 1,
        }


class TestCompilation:
    def test_compile_shapes(self):
        model = build_model(
            {"x": {"integer": True, "objective": 1.0}, "y": {"upper": 3.0}},
            [
                ("c1", Sense.LE, {"x": 2.0, "y": 1.0}, 10.0),
                ("c2", Sense.GE, {"x": 1.0}, 1.0),
                ("c3", Sense.EQ, {"y": 1.0}, 2.0),
            ],
        )
        compiled = model.compile()
        assert compiled.num_variables == 2
        assert compiled.num_integer_variables == 1
        assert compiled.a_ub.shape == (2, 2)  # LE + negated GE
        assert compiled.a_eq.shape == (1, 2)
        assert compiled.num_constraints == 3
        # GE constraints are negated into <= form.
        assert compiled.b_ub.tolist() == [10.0, -1.0]

    def test_check_solution(self):
        model = build_model(
            {"x": {"integer": True, "upper": 5.0}}, [("c", Sense.GE, {"x": 1.0}, 2.0)]
        )
        assert model.check_solution([3.0]) == []
        violations = model.check_solution(np.array([0.5]))
        assert any("not integral" in v for v in violations)
        assert any("c:" in v for v in violations)
        assert model.check_solution([7.0])  # above upper bound
        with pytest.raises(ValueError, match="expected"):
            model.check_solution([])


class TestBulkInput:
    """add_columns / add_constraints: blocks of any size, in insertion order."""

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
        assert scalar.add_columns(["a"], integer=True, objective=1.0) == range(0, 1)
        assert scalar.add_columns(["b"]) == range(1, 2)
        assert scalar.add_columns(["c"], integer=True, objective=2.0) == range(2, 3)
        assert bulk.add_columns(["d"], upper=4.0) == range(3, 4)
        scalar.add_columns(["d"], upper=4.0)
        assert bulk.summary() == scalar.summary()
        compiled, expected = bulk.compile(), scalar.compile()
        assert compiled.variable_names == expected.variable_names == ("a", "b", "c", "d")
        for field in ("objective", "lower", "upper", "integrality"):
            assert np.array_equal(getattr(compiled, field), getattr(expected, field))

    def test_scalar_and_bulk_rows_compile_in_insertion_order(self):
        model = LinearModel()
        self._columns(model)
        model.add_constraints(["first"], Sense.LE, [1.0], row=[0], col=[0], value=[1.0])
        model.add_constraints(
            ["second", "third"], Sense.LE, [2.0, 3.0], row=[1, 0, 1], col=[0, 1, 2],
            value=[4.0, 5.0, 6.0],
        )
        model.add_constraints(["fourth"], Sense.LE, [4.0], row=[0], col=[2], value=[7.0])
        compiled = model.compile()
        assert compiled.b_ub.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert compiled.a_ub.toarray().tolist() == [
            [1.0, 0.0, 0.0],
            [0.0, 5.0, 0.0],
            [4.0, 0.0, 6.0],
            [0.0, 0.0, 7.0],
        ]
        # A point that breaks every row names them in insertion order.
        violations = model.check_solution([10.0, 10.0, 10.0])
        assert [v.split(":")[0] for v in violations if ":" in v] == [
            "first", "second", "third", "fourth"
        ]

    def test_ge_rows_are_negated_and_eq_rows_go_to_a_eq(self):
        model = LinearModel()
        self._columns(model)
        model.add_constraints(
            ["ge"], Sense.GE, [2.0], row=[0, 0], col=[0, 2], value=[1.0, 3.0]
        )
        model.add_constraints(["eq1"], Sense.EQ, [5.0], row=[0], col=[1], value=[1.0])
        model.add_constraints(["eq2"], Sense.EQ, [6.0], row=[0], col=[1], value=[2.0])
        model.add_constraints(["ge2"], Sense.GE, [1.0], row=[0], col=[0], value=[4.0])
        compiled = model.compile()
        assert compiled.b_ub.tolist() == [-2.0, -1.0]
        assert compiled.a_ub.toarray().tolist() == [[-1.0, 0.0, -3.0], [-4.0, 0.0, 0.0]]
        assert compiled.b_eq.tolist() == [5.0, 6.0]
        assert compiled.a_eq.toarray().tolist() == [[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]]
        assert compiled.num_constraints == model.num_constraints == 4

    def test_zero_coefficients_are_dropped_on_both_paths(self):
        # One row per block (as the test helper adds them) and a block of rows.
        model = build_model(
            {"a": {}, "b": {}, "c": {}}, [("single", Sense.LE, {"a": 0.0, "b": 1.0}, 1.0)]
        )
        model.add_constraints(
            ["bulk", "other"], Sense.GE, [1.0, 0.0], row=[0, 0, 0, 1], col=[0, 1, 2, 0],
            value=[0.0, 2.0, -0.0, 0.0],
        )
        compiled = model.compile()
        assert compiled.a_ub.nnz == 2
        assert compiled.a_ub.indices.tolist() == [1, 1]
        assert compiled.a_ub.indptr.tolist() == [0, 1, 2, 2]

    def test_duplicate_names_raise(self):
        model = LinearModel()
        self._columns(model)
        with pytest.raises(ValueError):
            model.add_columns(["d", "a"])
        with pytest.raises(ValueError):
            model.add_columns(["d", "d"])
        with pytest.raises(ValueError):
            model.add_columns(["c"])
        model.add_constraints(["taken"], Sense.LE, [1.0], row=[0], col=[0], value=[1.0])
        for names in (["new", "taken"], ["twice", "twice"]):
            with pytest.raises(ValueError):
                model.add_constraints(names, Sense.LE, [0.0, 0.0], row=[], col=[], value=[])
        model.add_constraints(["bulk"], Sense.LE, [0.0], row=[0], col=[0], value=[1.0])
        with pytest.raises(ValueError):
            model.add_constraints(["bulk"], Sense.GE, [0.0], row=[0], col=[0], value=[1.0])
        assert model.num_variables == 3 and model.num_constraints == 2
        # A rejected block claims none of its names.
        model.add_columns(["d"])
        model.add_constraints(["new"], Sense.LE, [0.0], row=[], col=[], value=[])

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
        assert model.add_columns(["d", "e"]) == range(3, 5)

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
        assert model.check_solution([1.0, 0.0, 1.0]) == []
        violations = model.check_solution([0.5, 2.0, 0.0])
        assert any(v.startswith("cover:") for v in violations)
        assert any(v.startswith("cap:") for v in violations)
        assert any("a = 0.5 not integral" in v for v in violations)


class TestMilpSolution:
    def test_solution_without_a_point(self):
        solution = MilpSolution(status=SolutionStatus.INFEASIBLE, objective=float("inf"))
        assert solution.x.size == 0
        assert not solution.is_feasible
        assert MilpSolution(SolutionStatus.FEASIBLE, 1.0, np.array([2.0])).is_feasible


class TestCheckSolution:
    """``check_solution(x)`` on a model built in blocks: one case per violation kind."""

    @staticmethod
    def _model() -> LinearModel:
        model = LinearModel()
        model.add_columns(
            ["a", "b", "c"], lower=[1.0, 0.0, 0.0], upper=[3.0, 2.0, np.inf],
            integer=[True, False, False],
        )
        # a + b <= 4 and c <= 10 in one block; b >= 0.5; c == 1.
        model.add_constraints(
            ["le", "le_c"], Sense.LE, [4.0, 10.0], row=[0, 0, 1], col=[0, 1, 2],
            value=[1.0, 1.0, 1.0],
        )
        model.add_constraints(["ge"], Sense.GE, [0.5], row=[0], col=[1], value=[1.0])
        model.add_constraints(["eq"], Sense.EQ, [1.0], row=[0], col=[2], value=[1.0])
        return model

    def test_a_feasible_point_reports_nothing(self):
        assert self._model().check_solution([2.0, 1.5, 1.0]) == []

    @pytest.mark.parametrize(
        "x, violation",
        [
            pytest.param([0.0, 1.5, 1.0], "a = 0.0 below lower bound 1.0", id="below-lower"),
            pytest.param([1.0, 2.5, 1.0], "b = 2.5 above upper bound 2.0", id="above-upper"),
            pytest.param([1.5, 1.5, 1.0], "a = 1.5 not integral", id="not-integral"),
            pytest.param([3.0, 1.5, 1.0], "le: 4.5 > 4.0", id="le"),
            pytest.param([2.0, 0.25, 1.0], "ge: 0.25 < 0.5", id="ge"),
            pytest.param([2.0, 1.5, 2.0], "eq: 2.0 != 1.0", id="eq"),
        ],
    )
    def test_each_violation_is_reported_alone(self, x, violation):
        assert self._model().check_solution(np.array(x)) == [violation]
