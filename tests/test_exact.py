"""Unit tests for the exact solvers (assignment MILP and brute force)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import combined_lower_bound
from repro.core import Instance, Job
from repro.core.errors import SolverLimitError
from repro.exact import (
    BruteForceConfig,
    ExactMilpConfig,
    brute_force_optimum,
    brute_force_schedule,
    build_assignment_model,
    exact_milp_schedule,
    exact_schedule,
)
from repro.generators import (
    bag_heavy_instance,
    figure1_adversarial_instance,
    uniform_random_instance,
)
from repro.milp import LinearModel, Sense

from helpers import assert_feasible, assert_same_model, build_model


# ``exact_schedule`` sends the 24-job uniform instance to the assignment MILP,
# a solve of over a minute.  The tests that only read its result share it.
@pytest.fixture(scope="module")
def uniform_exact(uniform_instance):
    return exact_schedule(uniform_instance)


class TestBruteForce:
    def test_known_optimum_tiny(self, tiny_instance):
        # sizes 3,2 in bag0 and 2,1 in bag1 on 2 machines; optimum is 4
        # (3+1 on one machine, 2+2 on the other).
        assert brute_force_optimum(tiny_instance) == pytest.approx(4.0)

    def test_respects_bags(self):
        # Without bags the optimum would be 2 (pair the 1s); with a full bag
        # of 2s the jobs must spread.
        instance = Instance.from_sizes(
            [2.0, 2.0, 1.0, 1.0], bags=[0, 0, 1, 1], num_machines=2
        )
        assert brute_force_optimum(instance) == pytest.approx(3.0)

    def test_node_limit(self, uniform_instance):
        config = BruteForceConfig(max_nodes=3, raise_on_limit=True)
        with pytest.raises(SolverLimitError):
            brute_force_schedule(uniform_instance, config=config)

    def test_schedule_is_feasible(self, tiny_instance, full_bag_instance):
        for instance in (tiny_instance, full_bag_instance):
            result = brute_force_schedule(instance)
            assert_feasible(result.schedule)
            assert result.optimal


class TestExactMilp:
    def test_matches_brute_force(self):
        for seed in range(4):
            instance = uniform_random_instance(
                num_jobs=9, num_machines=3, num_bags=4, seed=seed
            ).instance
            milp = exact_milp_schedule(instance)
            brute = brute_force_optimum(instance)
            assert milp.makespan == pytest.approx(brute, abs=1e-6)
            assert_feasible(milp.schedule)

    def test_model_structure(self, tiny_instance):
        model = build_assignment_model(tiny_instance)
        summary = model.summary()
        # n*m assignment vars + T
        assert summary["variables"] == tiny_instance.num_jobs * tiny_instance.num_machines + 1
        assert summary["integer_variables"] == tiny_instance.num_jobs * tiny_instance.num_machines

    def test_symmetry_breaking_preserves_optimum(self, tiny_instance):
        with_sym = exact_milp_schedule(
            tiny_instance, config=ExactMilpConfig(symmetry_breaking=True)
        )
        without_sym = exact_milp_schedule(
            tiny_instance, config=ExactMilpConfig(symmetry_breaking=False)
        )
        assert with_sym.makespan == pytest.approx(without_sym.makespan)

    def test_optimum_at_least_lower_bound(self, uniform_instance, uniform_exact):
        result = uniform_exact
        assert result.solver == "exact-milp"
        assert result.makespan >= combined_lower_bound(uniform_instance) - 1e-6


class TestDispatch:
    def test_auto_uses_brute_for_tiny(self, tiny_instance):
        assert exact_schedule(tiny_instance).solver == "brute-force"

    def test_auto_uses_milp_for_larger(self, uniform_exact):
        assert uniform_exact.solver == "exact-milp"

    def test_explicit_methods(self, tiny_instance):
        assert exact_schedule(tiny_instance, method="milp").solver == "exact-milp"
        assert exact_schedule(tiny_instance, method="brute").solver == "brute-force"
        with pytest.raises(ValueError):
            exact_schedule(tiny_instance, method="quantum")


# ----------------------------------------------------------------------
# Oracle: the assignment MILP built by name, one dict per row.
# ----------------------------------------------------------------------
def _assignment_model_by_name(instance: Instance, *, symmetry_breaking: bool) -> LinearModel:
    jobs = instance.jobs
    machines = range(instance.num_machines)
    columns: dict[str, dict] = {"T": {"objective": 1.0}}
    for job in jobs:
        for machine in machines:
            columns[f"x_{job.id}_{machine}"] = {"integer": True, "upper": 1.0}
    rows = [
        (f"assign_{job.id}", Sense.EQ, {f"x_{job.id}_{machine}": 1.0 for machine in machines}, 1.0)
        for job in jobs
    ]
    for machine in machines:
        coefficients = {f"x_{job.id}_{machine}": job.size for job in jobs}
        coefficients["T"] = -1.0
        rows.append((f"load_{machine}", Sense.LE, coefficients, 0.0))
    for bag, members in instance.bags().items():
        if len(members) <= 1:
            continue
        for machine in machines:
            coefficients = {f"x_{job.id}_{machine}": 1.0 for job in members}
            rows.append((f"bag_{bag}_m{machine}", Sense.LE, coefficients, 1.0))
    if symmetry_breaking and instance.num_machines > 1:
        for machine in range(instance.num_machines - 1):
            coefficients = {}
            for job in jobs:
                coefficients[f"x_{job.id}_{machine}"] = -job.size
                coefficients[f"x_{job.id}_{machine + 1}"] = job.size
            rows.append((f"sym_{machine}", Sense.LE, coefficients, 0.0))
    return build_model(columns, rows, name=f"exact-{instance.name}")


def _assert_matches_the_oracle(instance: Instance) -> None:
    for symmetry_breaking in (True, False):
        assert_same_model(
            build_assignment_model(instance, symmetry_breaking=symmetry_breaking),
            _assignment_model_by_name(instance, symmetry_breaking=symmetry_breaking),
        )


@pytest.mark.parametrize(
    "instance",
    [
        Instance.from_sizes([0.5, 0.3, 0.0], bags=[0, 1, 2], num_machines=1, name="one-machine"),
        Instance.from_sizes([0.4, 0.6, 0.2], bags=[0, 0, 1], num_machines=2, name="bag-of-one"),
        Instance.from_sizes([0.7], bags=[0], num_machines=3, name="single-job"),
        figure1_adversarial_instance(num_machines=4).instance,
        bag_heavy_instance(num_machines=4, num_full_bags=2, extra_jobs=6, seed=1).instance,
    ],
    ids=lambda instance: instance.name,
)
def test_assignment_model_matches_the_by_name_builder(instance):
    _assert_matches_the_oracle(instance)


@st.composite
def _drawn_instances(draw) -> Instance:
    """1-5 machines, 1-13 jobs in bags of at most m (bags of one included),
    sizes that may be 0, job ids and bag labels out of order."""
    machines = draw(st.integers(1, 5))
    size = st.one_of(st.just(0.0), st.floats(0.001, 1.0))
    bags = draw(
        st.lists(st.lists(size, min_size=1, max_size=machines), min_size=1, max_size=13)
    )
    labels = draw(st.permutations(range(len(bags))))
    placed = [(value, labels[bag]) for bag, sizes in enumerate(bags) for value in sizes][:13]
    ids = draw(st.permutations(range(len(placed))))
    jobs = [Job(id=ids[index], size=value, bag=bag) for index, (value, bag) in enumerate(placed)]
    return Instance(jobs, machines, name="drawn")


@settings(max_examples=100, deadline=None)
@given(instance=_drawn_instances())
def test_assignment_model_matches_the_by_name_builder_on_drawn_instances(instance):
    _assert_matches_the_oracle(instance)


def test_schedule_is_read_back_by_column_index():
    """Job ids and bag labels out of instance order: the MILP's schedule is
    feasible and as good as brute force."""
    instance = Instance(
        [Job(id=7, size=3.0, bag=2), Job(id=2, size=2.0, bag=2), Job(id=5, size=2.0, bag=0),
         Job(id=0, size=1.0, bag=0), Job(id=3, size=1.5, bag=1)],
        3,
        name="shuffled",
    )
    result = exact_milp_schedule(instance)
    assert_feasible(result.schedule)
    assert result.makespan == pytest.approx(brute_force_optimum(instance), abs=1e-9)
