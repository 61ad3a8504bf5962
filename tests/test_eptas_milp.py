"""Unit tests for the configuration MILP (Section 3, constraints (1)-(9))."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import optimize

from repro.baselines import lpt_schedule
from repro.bounds import best_lower_bound
from repro.core import Instance
from repro.eptas import (
    EptasConfig,
    build_configuration_milp,
    classify_bags,
    classify_jobs,
    collect_entry_types,
    enumerate_patterns,
    scale_and_round,
    transform_instance,
    solve_configuration_milp,
)
from repro.generators import (
    clustered_sizes_instance,
    figure1_adversarial_instance,
    planted_optimum_instance,
    uniform_random_instance,
)
from repro.milp import LinearModel, SolutionStatus, solve_with_scipy


def _prepare(instance: Instance, eps: float = 0.25, guess: float | None = None, cap: int = 3):
    """Run the pipeline up to the MILP construction for a makespan guess."""
    config = EptasConfig(eps=eps, practical_priority_cap=cap).normalised()
    if guess is None:
        guess = lpt_schedule(instance).makespan
    rounded = scale_and_round(instance, config.eps, guess)
    working = rounded.instance
    job_classes = classify_jobs(working, config.eps)
    bag_classes = classify_bags(
        working, job_classes, practical_priority_cap=config.practical_priority_cap
    )
    record = transform_instance(working, job_classes, bag_classes)
    transformed_jobs = classify_jobs(record.transformed, config.eps, k=job_classes.k)
    constants = bag_classes.constants
    entry_types = collect_entry_types(record.transformed, transformed_jobs, bag_classes)
    patterns = enumerate_patterns(
        entry_types,
        budget=constants.budget,
        max_slots=constants.q,
        max_patterns=config.max_patterns,
    )
    model = build_configuration_milp(
        record.transformed, transformed_jobs, bag_classes, constants, patterns, config=config
    )
    return config, record, transformed_jobs, bag_classes, constants, patterns, model


class TestModelStructure:
    def test_variable_and_constraint_counts(self):
        instance = figure1_adversarial_instance(num_machines=4).instance
        *_, patterns, model = _prepare(instance, guess=1.0)
        summary = model.summary()
        assert summary["num_patterns"] == len(patterns)
        # one x per pattern plus the created y variables
        assert summary["variables"] >= len(patterns)
        assert summary["integer_variables"] >= len(patterns)
        assert summary["constraints"] >= len(patterns)  # at least the area constraints

    def test_y_variables_only_where_room_and_no_bag_clash(self):
        instance = uniform_random_instance(
            num_jobs=18, num_machines=4, num_bags=6, seed=3
        ).instance
        _, record, transformed_jobs, bag_classes, constants, patterns, model = _prepare(instance)
        for (pattern_index, bag, size), name in model.y_name.items():
            pattern = patterns.patterns[pattern_index]
            assert size <= constants.budget - pattern.height + 1e-9
            if bag in bag_classes.priority:
                assert not pattern.uses_bag(bag)

    def test_feasible_when_guess_is_achievable(self):
        generated = figure1_adversarial_instance(num_machines=4)
        config, *_, model = _prepare(generated.instance, guess=1.0)
        solution = solve_configuration_milp(model, config=config)
        assert solution.feasible
        assert solution.status in (SolutionStatus.OPTIMAL, SolutionStatus.FEASIBLE)
        # constraint (1): at most m machines used
        assert sum(solution.pattern_machines.values()) <= 4

    def test_infeasible_when_guess_is_too_small(self):
        generated = figure1_adversarial_instance(num_machines=4)
        # Guess far below the optimum of 1.0: even the 2.25x budget cannot fit
        # the full bag of small jobs plus the large jobs.
        config, *_, model = _prepare(generated.instance, guess=0.3)
        solution = solve_configuration_milp(model, config=config)
        assert not solution.feasible

    def test_small_assignment_respects_constraint5(self):
        instance = uniform_random_instance(
            num_jobs=20, num_machines=4, num_bags=7, seed=1
        ).instance
        config, record, transformed_jobs, bag_classes, constants, patterns, model = _prepare(
            instance
        )
        solution = solve_configuration_milp(model, config=config)
        assert solution.feasible
        # aggregate per (pattern, bag): sum_s y <= x_p
        per_pattern_bag: dict[tuple[int, int], float] = {}
        for (pattern_index, bag, _size), value in solution.small_assignment.items():
            per_pattern_bag[(pattern_index, bag)] = (
                per_pattern_bag.get((pattern_index, bag), 0.0) + value
            )
        for (pattern_index, bag), total in per_pattern_bag.items():
            machines = solution.pattern_machines.get(pattern_index, 0)
            assert total <= machines + 1e-6

    def test_coverage_constraints_cover_all_jobs(self):
        instance = uniform_random_instance(
            num_jobs=20, num_machines=4, num_bags=7, seed=2
        ).instance
        config, record, transformed_jobs, bag_classes, constants, patterns, model = _prepare(
            instance
        )
        solution = solve_configuration_milp(model, config=config)
        assert solution.feasible
        # every small job is covered by y variables (constraint (3))
        covered: dict[tuple[int, float], float] = {}
        for (pattern_index, bag, size), value in solution.small_assignment.items():
            covered[(bag, size)] = covered.get((bag, size), 0.0) + value
        for small_class in model.small_classes:
            total = covered.get((small_class.bag, small_class.size), 0.0)
            assert total >= small_class.count - 1e-6


def _reference_bagcap_rows(configuration, bag_classes) -> list[tuple[str, dict[str, float]]]:
    """Oracle: rows (5) as the O(P*B*C) loop built them.

    For every (pattern, bag) pair it scans all small classes for the bag's.
    """
    small_classes = configuration.small_classes
    y_name, x_name = configuration.y_name, configuration.x_name
    rows: list[tuple[str, dict[str, float]]] = []
    bags_with_small = sorted({small.bag for small in small_classes})
    for index, pattern in enumerate(configuration.patterns.patterns):
        for bag in bags_with_small:
            keys = [
                (index, small.bag, small.size)
                for small in small_classes
                if small.bag == bag and (index, small.bag, small.size) in y_name
            ]
            if not keys:
                continue
            coefficients = {y_name[key]: 1.0 for key in keys}
            uses = 1 if (bag in bag_classes.priority and pattern.uses_bag(bag)) else 0
            coefficients[x_name[index]] = -(1.0 - uses)
            rows.append((f"bagcap_{index}_{bag}", coefficients))
    return rows


def _rows(model: LinearModel) -> list[tuple]:
    return [
        (row.name, list(row.coefficients.items()), row.sense, row.rhs)
        for row in model.constraints
    ]


@pytest.mark.parametrize(
    "instance",
    [
        clustered_sizes_instance(seed=3).instance,
        uniform_random_instance(num_jobs=40, num_machines=5, num_bags=8, seed=4).instance,
        figure1_adversarial_instance(num_machines=6).instance,
    ],
    ids=["clustered", "uniform", "figure1"],
)
def test_bagcap_rows_match_the_scan_over_all_classes(instance):
    """Rows (5) of the first-guess model equal the oracle's, and so does the compiled model."""
    eps = 0.5
    guess = best_lower_bound(instance).best
    *_, bag_classes, _constants, _patterns, configuration = _prepare(
        instance, eps=eps, guess=guess
    )
    model = configuration.model
    reference = LinearModel(model.name)
    for variable in model.variables.values():
        reference.add_variable(
            variable.name,
            lower=variable.lower,
            upper=variable.upper,
            integer=variable.is_integer,
            objective=variable.objective,
        )
    for row in model.constraints:
        if not row.name.startswith("bagcap_"):
            reference.add_constraint(row.name, row.coefficients, row.sense, row.rhs)
    expected_rows = _reference_bagcap_rows(configuration, bag_classes)
    assert expected_rows
    for name, coefficients in expected_rows:
        reference.add_le(name, coefficients, 0.0)

    assert _rows(model) == _rows(reference)
    compiled, expected = model.compile(), reference.compile()
    assert compiled.variable_names == expected.variable_names
    for field in ("objective", "lower", "upper", "integrality", "b_ub", "b_eq"):
        assert np.array_equal(getattr(compiled, field), getattr(expected, field)), field
    for field in ("a_ub", "a_eq"):
        matrix, wanted = getattr(compiled, field), getattr(expected, field)
        assert matrix.shape == wanted.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(matrix, part), getattr(wanted, part)), (field, part)


def test_lp_answered_first_guess_is_a_milp_optimum():
    """The first guess's LP optimum is integral, feasible and as good as HiGHS's MILP."""
    instance = planted_optimum_instance(num_machines=4, seed=1).instance
    guess = best_lower_bound(instance).best
    *_, configuration = _prepare(instance, eps=0.5, guess=guess)
    model = configuration.model
    solution = solve_with_scipy(model)
    assert solution.status is SolutionStatus.OPTIMAL
    assert solution.diagnostics["lp_relaxation"] == "integral"
    assert model.check_solution(solution.values) == []

    compiled = model.compile()
    direct = optimize.milp(
        c=compiled.objective,
        constraints=[
            optimize.LinearConstraint(compiled.a_ub, -np.inf, compiled.b_ub),
            optimize.LinearConstraint(compiled.a_eq, compiled.b_eq, compiled.b_eq),
        ],
        integrality=compiled.integrality,
        bounds=optimize.Bounds(compiled.lower, compiled.upper),
    )
    assert direct.status == 0
    assert solution.objective == pytest.approx(direct.fun, abs=1e-9)
