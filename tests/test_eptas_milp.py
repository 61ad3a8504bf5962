"""Unit tests for the configuration MILP (Section 3, constraints (1)-(9))."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.baselines import lpt_schedule
from repro.bounds import best_lower_bound
from repro.core import Instance, Job, SolverLimitError
from repro.eptas import (
    EptasConfig,
    build_configuration_milp,
    classify_bags,
    classify_jobs,
    collect_entry_types,
    enumerate_patterns,
    group_jobs,
    scale_and_round,
    transform_instance,
    solve_configuration_milp,
)
from repro.eptas.classification import SIZE_TOL
from repro.eptas.milp import interpret_milp_solution
from repro.eptas.patterns import (
    WILDCARD_BAG,
    PatternEntry,
    SmallClass,
    size_key,
)
from repro.generators import (
    bag_heavy_instance,
    clustered_sizes_instance,
    figure1_adversarial_instance,
    planted_optimum_instance,
    uniform_random_instance,
)
from repro.milp import LinearModel, MilpSolution, Sense, SolutionStatus, solve_with_scipy

from helpers import assert_same_model, build_model


def _prepare(instance: Instance, eps: float = 0.25, guess: float | None = None, cap: int = 3):
    """Run the pipeline up to the MILP construction for a makespan guess."""
    config = EptasConfig(eps=eps, practical_priority_cap=cap).normalised()
    if guess is None:
        guess = lpt_schedule(instance).makespan
    working = scale_and_round(instance, config.eps, guess)
    job_classes = classify_jobs(working, config.eps)
    bag_classes = classify_bags(
        working, job_classes, practical_priority_cap=config.practical_priority_cap
    )
    record = transform_instance(working, job_classes, bag_classes)
    transformed_jobs = classify_jobs(record.transformed, config.eps, k=job_classes.k)
    constants = bag_classes.constants
    table = group_jobs(record.transformed, transformed_jobs, bag_classes)
    entry_types = collect_entry_types(table)
    patterns = enumerate_patterns(
        entry_types,
        budget=constants.budget,
        max_slots=constants.q,
        max_patterns=config.max_patterns,
    )
    model = build_configuration_milp(
        record.transformed, table, bag_classes, constants, patterns
    )
    return config, record, transformed_jobs, bag_classes, constants, patterns, model


# Instances with non-priority classes of size 0 at their first guess (eps 1/2).
_ZERO_SIZE_INSTANCES = pytest.mark.parametrize(
    "instance",
    [
        figure1_adversarial_instance(num_machines=6).instance,
        bag_heavy_instance(num_machines=4, num_full_bags=2, extra_jobs=6, seed=1).instance,
    ],
    ids=["figure1", "bag-heavy"],
)


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
        for pattern_index, small in zip(model.y_pattern.tolist(), model.y_class.tolist()):
            bag, size = model.small_classes[small].bag, model.small_classes[small].size
            pattern = patterns.patterns[pattern_index]
            assert size <= constants.budget - pattern.height + 1e-9
            if bag in bag_classes.priority:
                assert not pattern.uses_bag(bag)

    @_ZERO_SIZE_INSTANCES
    def test_zero_size_non_priority_classes_get_no_y_column(self, instance):
        config, _, _, bag_classes, _, _, model = _prepare(
            instance, eps=0.5, guess=best_lower_bound(instance).best
        )
        zero_size = [
            index
            for index, small in enumerate(model.small_classes)
            if small.size == 0.0 and small.bag not in bag_classes.priority
        ]
        assert zero_size
        assert not np.isin(model.y_class, zero_size).any()
        solution = solve_configuration_milp(model, config=config)
        assert solution.feasible
        assert all(solution.small_assignment[index] == [] for index in zero_size)

    def test_figure1_m200_model_has_only_x_columns(self):
        instance = figure1_adversarial_instance(num_machines=200).instance
        *_, model = _prepare(instance, eps=0.25, guess=best_lower_bound(instance).best)
        summary = model.summary()
        assert (summary["variables"], summary["constraints"]) == (20, 25)
        assert summary["continuous_variables"] == 0

    def test_priority_cap_one_first_guess_has_one_column_per_pattern(self):
        """The first-guess model of ``test_priority_cap_one``, built but not solved."""
        instance = uniform_random_instance(
            num_jobs=24, num_machines=4, num_bags=8, seed=7
        ).instance
        *_, patterns, model = _prepare(
            instance, eps=0.25, guess=best_lower_bound(instance).best, cap=1
        )
        assert len(patterns) == model.summary()["variables"] == 25_154

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
        for small, entries in zip(model.small_classes, solution.small_assignment):
            for pattern_index, value in entries:
                per_pattern_bag[(pattern_index, small.bag)] = (
                    per_pattern_bag.get((pattern_index, small.bag), 0.0) + value
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
        for small, entries in zip(model.small_classes, solution.small_assignment):
            for _pattern_index, value in entries:
                covered[(small.bag, small.size)] = (
                    covered.get((small.bag, small.size), 0.0) + value
                )
        for small_class in model.small_classes:
            total = covered.get((small_class.bag, small_class.size), 0.0)
            assert total >= small_class.count - 1e-6


# ----------------------------------------------------------------------
# Oracles: the per-stage job groupings and the name-keyed readback that the
# job table and the column-index readback replaced.
# ----------------------------------------------------------------------
def _collect_small_classes(instance, job_classes):
    """Oracle: the configuration builder's walk, small jobs by (bag, size)."""
    groups: dict[tuple[int, float], list[int]] = {}
    for job in instance.jobs:
        if job.id not in job_classes.small:
            continue
        groups.setdefault((job.bag, size_key(job.size)), []).append(job.id)
    return tuple(
        SmallClass(bag=bag, size=size, job_ids=tuple(sorted(ids)))
        for (bag, size), ids in sorted(groups.items())
    )


def _collect_entry_types(instance, job_classes, bag_classes):
    """Oracle: ``collect_entry_types``' walk over every job."""
    priority_counts: dict[tuple[int, float], int] = {}
    wildcard_counts: dict[float, int] = {}
    for job in instance.jobs:
        if job.id in job_classes.small:
            continue
        key_size = size_key(job.size)
        if job.bag in bag_classes.priority:
            priority_counts[(job.bag, key_size)] = (
                priority_counts.get((job.bag, key_size), 0) + 1
            )
        else:
            wildcard_counts[key_size] = wildcard_counts.get(key_size, 0) + 1
    entry_types = [
        (PatternEntry(size=size, bag=bag), count)
        for (bag, size), count in sorted(priority_counts.items())
    ]
    for size, count in sorted(wildcard_counts.items()):
        entry_types.append((PatternEntry(size=size, bag=WILDCARD_BAG), count))
    entry_types.sort(key=lambda item: (-item[0].size, item[0].bag))
    return entry_types


def _large_job_pools(instance, job_classes, bag_classes):
    """Oracle: ``place_large_and_medium``'s pools, reverse-sorted to pop the smallest id."""
    priority_pool: dict[tuple[int, float], list[int]] = {}
    wildcard_pool: dict[float, dict[int, list[int]]] = {}
    for job in instance.jobs:
        if job.id in job_classes.small:
            continue
        key = size_key(job.size)
        if job.bag in bag_classes.priority:
            priority_pool.setdefault((job.bag, key), []).append(job.id)
        else:
            wildcard_pool.setdefault(key, {}).setdefault(job.bag, []).append(job.id)
    for pool in priority_pool.values():
        pool.sort(reverse=True)
    for per_bag in wildcard_pool.values():
        for pool in per_bag.values():
            pool.sort(reverse=True)
    return priority_pool, wildcard_pool


def _small_jobs_by_class(instance, job_classes):
    """Oracle: ``place_small_jobs``' walk, small jobs by (bag, size), ids ascending."""
    groups: dict[tuple[int, float], list[Job]] = {}
    for job in instance.jobs:
        if job.id in job_classes.small:
            groups.setdefault((job.bag, size_key(job.size)), []).append(job)
    for jobs in groups.values():
        jobs.sort(key=lambda job: job.id)
    return groups


def _interpret_by_name(x_name, y_name, values):
    """Oracle: the name-keyed readback, ``small_assignment`` keyed by (p, bag, size)."""
    pattern_machines: dict[int, int] = {}
    for index, name in x_name.items():
        value = int(round(values.get(name, 0.0)))
        if value > 0:
            pattern_machines[index] = value
    small_assignment: dict[tuple[int, int, float], float] = {}
    for key, name in y_name.items():
        value = values.get(name, 0.0)
        if value > 1e-9:
            small_assignment[key] = float(value)
    return pattern_machines, small_assignment


def _dict_builder(
    instance, job_classes, bag_classes, constants, patterns, *, keep_zero_size=False
):
    """Oracle: the configuration MILP built by name, one dict per row.

    A non-priority class of size 0 gets no ``y`` and no ``cover_s`` row,
    unless ``keep_zero_size`` asks for the full model that gives it both.
    Returns ``(model, small_classes, x_name, y_name)``.
    """
    budget = constants.budget
    small_classes = _collect_small_classes(instance, job_classes)
    columns: dict[str, dict] = {}
    rows: list[tuple[str, Sense, dict[str, float], float]] = []

    def has_y(small):
        return keep_zero_size or small.size != 0.0 or small.bag in bag_classes.priority

    x_name: dict[int, str] = {}
    for index, pattern in enumerate(patterns.patterns):
        name = f"x_{index}"
        x_name[index] = name
        columns[name] = {"integer": True, "objective": pattern.height * pattern.height}

    y_name: dict[tuple[int, int, float], str] = {}
    threshold = constants.small_integral_threshold
    for index, pattern in enumerate(patterns.patterns):
        headroom = budget - pattern.height + SIZE_TOL
        for small in small_classes:
            if not has_y(small) or small.size > headroom:
                continue
            if small.bag in bag_classes.priority and pattern.uses_bag(small.bag):
                continue
            name = f"y_{index}_{small.bag}_{small.size:.12g}"
            y_name[(index, small.bag, small.size)] = name
            integral = small.bag in bag_classes.priority and small.size > threshold
            columns[name] = {"integer": integral}

    # (1)
    rows.append(
        (
            "machines",
            Sense.LE,
            {x_name[index]: 1.0 for index in range(len(patterns.patterns))},
            float(instance.num_machines),
        )
    )

    # (2)
    priority_requirements: dict[tuple[int, float], int] = {}
    wildcard_requirements: dict[float, int] = {}
    for entry, available in patterns.entry_types:
        if entry.is_wildcard:
            wildcard_requirements[entry.size] = available
        else:
            priority_requirements[(entry.bag, entry.size)] = available
    for (bag, size), required in sorted(priority_requirements.items()):
        coefficients: dict[str, float] = {}
        for index, pattern in enumerate(patterns.patterns):
            count = pattern.priority_slots().get((bag, size), 0)
            if count:
                coefficients[x_name[index]] = float(count)
        rows.append((f"cover_p_{bag}_{size:.12g}", Sense.GE, coefficients, float(required)))
    for size, required in sorted(wildcard_requirements.items()):
        coefficients = {}
        for index, pattern in enumerate(patterns.patterns):
            count = pattern.wildcard_slots().get(size, 0)
            if count:
                coefficients[x_name[index]] = float(count)
        rows.append((f"cover_x_{size:.12g}", Sense.GE, coefficients, float(required)))

    # (3)
    for small in filter(has_y, small_classes):
        coefficients = {
            y_name[(index, small.bag, small.size)]: 1.0
            for index in range(len(patterns.patterns))
            if (index, small.bag, small.size) in y_name
        }
        rows.append(
            (f"cover_s_{small.bag}_{small.size:.12g}", Sense.GE, coefficients, float(small.count))
        )

    # (4)
    for index, pattern in enumerate(patterns.patterns):
        coefficients = {}
        for small in small_classes:
            key = (index, small.bag, small.size)
            if key in y_name:
                coefficients[y_name[key]] = small.size
        coefficients[x_name[index]] = -(budget - pattern.height)
        rows.append((f"area_{index}", Sense.LE, coefficients, 0.0))

    # (5)
    classes_by_bag: dict[int, list[SmallClass]] = {}
    for small in small_classes:
        classes_by_bag.setdefault(small.bag, []).append(small)
    for index, pattern in enumerate(patterns.patterns):
        for bag, classes in classes_by_bag.items():
            keys = [
                (index, bag, small.size)
                for small in classes
                if (index, bag, small.size) in y_name
            ]
            if not keys:
                continue
            coefficients = {y_name[key]: 1.0 for key in keys}
            uses = 1 if (bag in bag_classes.priority and pattern.uses_bag(bag)) else 0
            coefficients[x_name[index]] = -(1.0 - uses)
            rows.append((f"bagcap_{index}_{bag}", Sense.LE, coefficients, 0.0))

    model = build_model(columns, rows, name=f"eptas-{instance.name}")
    return model, small_classes, x_name, y_name


def _assert_table_matches_the_walks(transformed, jobs, bag_classes, table):
    """The job table holds what each stage's own walk over the jobs grouped."""
    assert table.small == _collect_small_classes(transformed, jobs)
    assert collect_entry_types(table) == _collect_entry_types(transformed, jobs, bag_classes)
    priority_pool, wildcard_pool = _large_job_pools(transformed, jobs, bag_classes)
    assert {key: list(reversed(ids)) for key, ids in table.priority.items()} == priority_pool
    assert {
        size: {bag: list(reversed(ids)) for bag, ids in per_bag.items()}
        for size, per_bag in table.wildcard.items()
    } == wildcard_pool
    assert {
        (small.bag, small.size): [transformed.job(job_id) for job_id in small.job_ids]
        for small in table.small
    } == _small_jobs_by_class(transformed, jobs)


def _assert_readback_matches_the_names(configuration, x_name, y_name):
    """Reading by column index gives what the names gave, for a drawn point."""
    compiled = configuration.model.compile()
    rng = np.random.default_rng(compiled.num_variables)
    x = rng.choice(
        [0.0, 0.0, 1e-10, 0.4, 0.5, 1.0, 1.5, 2.5, 2.9999999999], size=compiled.num_variables
    )
    solution = MilpSolution(status=SolutionStatus.OPTIMAL, objective=0.0, x=x)
    interpreted = interpret_milp_solution(configuration, solution)
    pattern_machines, small_assignment = _interpret_by_name(
        x_name, y_name, dict(zip(compiled.variable_names, x.tolist()))
    )
    assert interpreted.pattern_machines == pattern_machines
    assert len(interpreted.small_assignment) == len(configuration.small_classes)
    for small, entries in zip(configuration.small_classes, interpreted.small_assignment):
        # The scan small-job placement ran over the name-keyed entries.
        assert entries == sorted(
            (
                (pattern_index, value)
                for (pattern_index, y_bag, y_size), value in small_assignment.items()
                if y_bag == small.bag and abs(y_size - small.size) <= 1e-12
            ),
            key=lambda item: item[0],
        )
    assert sum(map(len, interpreted.small_assignment)) == len(small_assignment)


def _assert_matches_dict_builder(instance: Instance, eps: float, guess: float, cap: int = 3):
    """The configuration model equals the oracle's, compiled arrays byte for byte.

    The job table, the entry types, the large-job pools and the column-index
    readback match the walks and the name-keyed readback they replaced.
    """
    _, record, jobs, bag_classes, constants, patterns, configuration = _prepare(
        instance, eps=eps, guess=guess, cap=cap
    )
    table = group_jobs(record.transformed, jobs, bag_classes)
    _assert_table_matches_the_walks(record.transformed, jobs, bag_classes, table)
    reference, small_classes, x_name, y_name = _dict_builder(
        record.transformed, jobs, bag_classes, constants, patterns
    )
    assert configuration.small_classes == small_classes
    assert_same_model(configuration.model, reference)
    compiled = configuration.model.compile()
    # Column p is x_p; the y columns follow in y_pattern/y_class order.
    num_patterns = len(patterns.patterns)
    assert compiled.variable_names[:num_patterns] == tuple(x_name.values())
    assert [
        (pattern_index, small_classes[small].bag, small_classes[small].size)
        for pattern_index, small in zip(
            configuration.y_pattern.tolist(), configuration.y_class.tolist()
        )
    ] == list(y_name)
    assert compiled.variable_names[num_patterns:] == tuple(y_name.values())
    _assert_readback_matches_the_names(configuration, x_name, y_name)


_FIRST_GUESS_INSTANCES = pytest.mark.parametrize(
    ("instance", "eps"),
    [
        (clustered_sizes_instance(seed=3).instance, 0.5),
        (
            uniform_random_instance(num_jobs=40, num_machines=5, num_bags=8, seed=4).instance,
            0.5,
        ),
        (figure1_adversarial_instance(num_machines=6).instance, 0.5),
        (figure1_adversarial_instance(num_machines=200).instance, 0.25),
        (planted_optimum_instance(num_machines=8, seed=0).instance, 0.25),
        (
            bag_heavy_instance(num_machines=4, num_full_bags=2, extra_jobs=6, seed=1).instance,
            0.5,
        ),
    ],
    ids=["clustered", "uniform", "figure1", "figure1-m200", "planted-eps0.25", "bag-heavy"],
)


@_FIRST_GUESS_INSTANCES
def test_configuration_model_matches_the_dict_builder(instance, eps):
    """The first-guess model equals the one built by name, rows (1)-(5) included;
    the job table and the readback match the walks and names they replaced."""
    _assert_matches_dict_builder(instance, eps, best_lower_bound(instance).best)


@st.composite
def _small_instances(draw) -> Instance:
    machines = draw(st.integers(2, 5))
    size = st.one_of(st.just(0.0), st.floats(0.001, 1.0))
    bags = draw(
        st.lists(st.lists(size, min_size=1, max_size=machines), min_size=1, max_size=5)
    )
    jobs = [
        Job(id=len(bags) * position + bag, size=value, bag=bag)
        for bag, sizes in enumerate(bags)
        for position, value in enumerate(sizes)
    ]
    return Instance(jobs, machines, name="drawn")


@settings(max_examples=150, deadline=None)
@given(
    instance=_small_instances(),
    eps=st.sampled_from([0.5, 0.25]),
    factor=st.floats(0.6, 1.6),
    cap=st.integers(1, 3),
)
def test_configuration_model_matches_the_dict_builder_on_drawn_instances(
    instance, eps, factor, cap
):
    """Drawn sizes include 0 (zero area coefficients) and priority caps of 1-3."""
    lower = best_lower_bound(instance).best
    assume(lower > 0)
    try:
        _assert_matches_dict_builder(instance, eps, lower * factor, cap=cap)
    except SolverLimitError:
        assume(False)


def _scipy_milp(model: LinearModel, *, relax: bool = False):
    """``scipy.optimize.milp`` on the compiled model, or on its LP relaxation."""
    compiled = model.compile()
    return optimize.milp(
        c=compiled.objective,
        constraints=[
            optimize.LinearConstraint(compiled.a_ub, -np.inf, compiled.b_ub),
            optimize.LinearConstraint(compiled.a_eq, compiled.b_eq, compiled.b_eq),
        ],
        integrality=None if relax else compiled.integrality,
        bounds=optimize.Bounds(compiled.lower, compiled.upper),
    )


def _assert_same_optimum(model: LinearModel, full: LinearModel, *, relax: bool) -> None:
    """Equal scipy status, and equal objectives (relative 1e-9) when optimal."""
    result, expected = _scipy_milp(model, relax=relax), _scipy_milp(full, relax=relax)
    assert result.status == expected.status
    if expected.status == 0:
        assert result.fun == pytest.approx(expected.fun, rel=1e-9, abs=1e-12)


def _model_and_full_model(instance: Instance, eps: float, guess: float, cap: int = 3):
    """The builder's model and the oracle's model with the non-priority
    size-0 classes kept."""
    _, record, jobs, bag_classes, constants, patterns, configuration = _prepare(
        instance, eps=eps, guess=guess, cap=cap
    )
    full, *_ = _dict_builder(
        record.transformed, jobs, bag_classes, constants, patterns, keep_zero_size=True
    )
    return configuration.model, full


@_FIRST_GUESS_INSTANCES
def test_dropping_zero_size_classes_keeps_the_lp_optimum(instance, eps):
    """Without the non-priority size-0 classes the first guess's LP relaxation
    ends as it does with them, at the same objective."""
    model, full = _model_and_full_model(instance, eps, best_lower_bound(instance).best)
    _assert_same_optimum(model, full, relax=True)


@_ZERO_SIZE_INSTANCES
def test_dropping_zero_size_classes_keeps_the_milp_optimum(instance):
    model, full = _model_and_full_model(instance, 0.5, best_lower_bound(instance).best)
    assert model.summary()["variables"] < full.summary()["variables"]
    _assert_same_optimum(model, full, relax=False)


@settings(max_examples=150, deadline=None)
@given(
    instance=_small_instances(),
    eps=st.sampled_from([0.5, 0.25]),
    factor=st.floats(0.6, 1.6),
    cap=st.integers(1, 3),
)
def test_dropping_zero_size_classes_keeps_the_lp_optimum_on_drawn_instances(
    instance, eps, factor, cap
):
    lower = best_lower_bound(instance).best
    assume(lower > 0)
    try:
        model, full = _model_and_full_model(instance, eps, lower * factor, cap=cap)
    except SolverLimitError:
        assume(False)
    _assert_same_optimum(model, full, relax=True)


def test_lp_answered_first_guess_is_a_milp_optimum():
    """The first guess's LP optimum is integral, feasible and as good as HiGHS's MILP."""
    instance = planted_optimum_instance(num_machines=4, seed=1).instance
    guess = best_lower_bound(instance).best
    *_, configuration = _prepare(instance, eps=0.5, guess=guess)
    model = configuration.model
    solution = solve_with_scipy(model)
    assert solution.status is SolutionStatus.OPTIMAL
    assert solution.diagnostics["lp_relaxation"] == "integral"
    assert model.check_solution(solution.x) == []

    direct = _scipy_milp(model)
    assert direct.status == 0
    assert solution.objective == pytest.approx(direct.fun, abs=1e-9)
