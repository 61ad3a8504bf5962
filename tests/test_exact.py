"""Unit tests for the exact solvers (assignment MILP and brute force)."""

from __future__ import annotations

import pytest

from repro.bounds import combined_lower_bound
from repro.core import Instance
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
from repro.generators import uniform_random_instance

from helpers import assert_feasible


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
