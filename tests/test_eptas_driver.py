"""Unit and integration tests for the EPTAS driver (Theorem 1)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines import greedy_schedule, lpt_schedule
from repro.bounds import best_lower_bound, combined_lower_bound
from repro.core import Instance
from repro.eptas import ConstantsMode, EptasConfig, driver, eptas_schedule, solve_for_guess
from repro.exact import brute_force_optimum, exact_milp_schedule
from repro.generators import (
    bag_heavy_instance,
    figure1_adversarial_instance,
    planted_optimum_instance,
    replica_workload_instance,
    two_size_instance,
    uniform_random_instance,
)

from helpers import assert_feasible


class TestDriverBasics:
    def test_empty_instance(self):
        instance = Instance([], 3, name="empty")
        result = eptas_schedule(instance, eps=0.5)
        assert result.makespan == 0.0

    def test_single_job(self):
        instance = Instance.from_sizes([2.5], bags=[0], num_machines=2)
        result = eptas_schedule(instance, eps=0.5)
        assert result.makespan == pytest.approx(2.5)
        assert_feasible(result.schedule)

    def test_single_machine(self):
        instance = Instance.from_sizes([1.0, 2.0, 3.0], bags=[0, 1, 2], num_machines=1)
        result = eptas_schedule(instance, eps=0.5)
        assert result.makespan == pytest.approx(6.0)

    def test_diagnostics_populated(self, uniform_instance):
        result = eptas_schedule(uniform_instance, eps=0.5)
        assert result.solver == "eptas"
        assert result.params["eps"] == 0.5
        assert "lower_bound" in result.diagnostics
        assert "greedy_upper_bound" in result.diagnostics
        assert result.diagnostics["search_iterations"] >= 1
        assert isinstance(result.diagnostics["attempts"], list)

    def test_eps_is_normalised(self, uniform_instance):
        result = eptas_schedule(uniform_instance, eps=0.3)
        # eps is pushed down to the next reciprocal of an integer (1/4)
        assert result.params["eps"] == pytest.approx(0.25)

    def test_never_worse_than_greedy_upper_bound(self, uniform_instance):
        result = eptas_schedule(uniform_instance, eps=0.5)
        lpt = lpt_schedule(uniform_instance)
        assert result.makespan <= lpt.makespan + 1e-9


class TestApproximationGuarantee:
    """Theorem 1: the makespan is at most (1 + O(eps)) * OPT."""

    @pytest.mark.parametrize("eps", [0.5, 0.25])
    def test_figure1_family_is_solved_optimally(self, eps):
        generated = figure1_adversarial_instance(num_machines=5)
        result = eptas_schedule(generated.instance, eps=eps)
        assert_feasible(result.schedule)
        assert result.makespan <= generated.known_optimum * (1 + 2 * eps + eps**2) + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_guarantee_on_small_random_instances(self, seed):
        eps = 0.5
        instance = uniform_random_instance(
            num_jobs=10, num_machines=3, num_bags=4, seed=seed
        ).instance
        optimum = brute_force_optimum(instance)
        result = eptas_schedule(instance, eps=eps)
        assert_feasible(result.schedule)
        assert result.makespan <= (1 + 2 * eps + eps**2) * optimum + 1e-9

    @pytest.mark.parametrize(
        "generator",
        [
            lambda: two_size_instance(num_machines=5, seed=1),
            lambda: planted_optimum_instance(num_machines=4, seed=2),
            lambda: bag_heavy_instance(num_machines=4, num_full_bags=3, extra_jobs=5, seed=3),
        ],
    )
    def test_guarantee_on_structured_families(self, generator):
        generated = generator()
        instance = generated.instance
        eps = 0.25
        reference = generated.known_optimum or exact_milp_schedule(instance).makespan
        result = eptas_schedule(instance, eps=eps)
        assert_feasible(result.schedule)
        assert result.makespan <= (1 + 2 * eps + eps**2) * reference + 1e-9

    def test_better_than_naive_placement_on_adversarial_family(self):
        from repro.baselines import first_fit_schedule

        generated = figure1_adversarial_instance(num_machines=8)
        naive = first_fit_schedule(generated.instance)
        eptas = eptas_schedule(generated.instance, eps=0.25)
        assert eptas.makespan <= generated.known_optimum + 1e-9
        # The bag-oblivious first-fit placement pays the Figure-1 penalty.
        assert naive.makespan >= 1.5 - 1e-9


class TestSolveForGuess:
    def test_feasible_at_generous_guess(self, uniform_instance):
        config = EptasConfig(eps=0.5).normalised()
        upper = lpt_schedule(uniform_instance).makespan
        schedule, report = solve_for_guess(uniform_instance, upper, config)
        assert report.feasible
        assert schedule is not None
        assert_feasible(schedule)
        assert report.num_patterns > 0

    def test_infeasible_at_tiny_guess(self, uniform_instance):
        config = EptasConfig(eps=0.5).normalised()
        lower = combined_lower_bound(uniform_instance)
        schedule, report = solve_for_guess(uniform_instance, lower * 0.2, config)
        assert schedule is None
        assert not report.feasible

    def test_report_to_dict(self, uniform_instance):
        config = EptasConfig(eps=0.5).normalised()
        _, report = solve_for_guess(
            uniform_instance, lpt_schedule(uniform_instance).makespan, config
        )
        data = report.to_dict()
        assert data["feasible"] is True
        assert data["k"] >= 1
        assert data["num_patterns"] == report.num_patterns


class TestBinarySearch:
    """The dual-approximation search: the lower bound, then geometric midpoints."""

    # Per seed, with the lower bound halved: the feasible flag of each guess
    # and the final makespan.
    EXPECTED = {
        0: ([False, True, True, False, False], 2.33645413848856),
        1: ([False, True, True, False, True], 2.3494234520219264),
        2: ([False, True, True, False, True], 1.7631488236418416),
    }

    @pytest.mark.parametrize("seed", sorted(EXPECTED))
    def test_guesses_follow_the_bracket(self, seed, monkeypatch):
        # A halved lower bound leaves a wide bracket, so the search needs
        # several guesses instead of ending at the bound.
        def halved_bound(instance, **kwargs):
            report = best_lower_bound(instance, **kwargs)
            return replace(report, best=report.best / 2)

        monkeypatch.setattr(driver, "best_lower_bound", halved_bound)
        instance = uniform_random_instance(
            num_jobs=12, num_machines=3, num_bags=5, seed=seed
        ).instance
        result = eptas_schedule(instance, eps=0.5)
        diagnostics = result.diagnostics
        attempts = diagnostics["attempts"]

        low = halved_bound(instance).best
        high = max(diagnostics["greedy_upper_bound"], low)
        assert attempts[0]["guess"] == low
        for previous, attempt in zip(attempts, attempts[1:]):
            if previous["feasible"]:
                high = min(high, previous["guess"])
            elif previous["guess"] < high:
                low = max(low * (1 + 1e-9), previous["guess"])
            assert attempt["guess"] == low * (high / low) ** 0.5

        assert diagnostics["search_iterations"] == len(attempts)
        feasible, makespan = self.EXPECTED[seed]
        assert [attempt["feasible"] for attempt in attempts] == feasible
        assert result.makespan == pytest.approx(makespan, rel=1e-12)
        assert_feasible(result.schedule)


class TestConfigurations:
    def test_theory_mode_on_tiny_instance(self):
        # Theory constants are astronomically large in general; on a tiny
        # instance with a single large size they stay manageable and the
        # result must still be feasible.
        instance = two_size_instance(num_machines=3, seed=0).instance
        config = EptasConfig(eps=0.5, mode=ConstantsMode.THEORY, max_patterns=100_000)
        result = eptas_schedule(instance, eps=0.5, config=config)
        assert_feasible(result.schedule)

    def test_bnb_backend(self):
        instance = uniform_random_instance(
            num_jobs=12, num_machines=3, num_bags=5, seed=2
        ).instance
        config = EptasConfig(eps=0.5, milp_backend="bnb")
        result = eptas_schedule(instance, eps=0.5, config=config)
        assert_feasible(result.schedule)

    def test_pattern_limit_falls_back_to_greedy(self):
        instance = uniform_random_instance(
            num_jobs=20, num_machines=4, num_bags=8, seed=1
        ).instance
        config = EptasConfig(eps=0.25, max_patterns=2)
        result = eptas_schedule(instance, eps=0.25, config=config)
        # The enumeration limit aborts the attempt; the driver still returns
        # a feasible schedule (the greedy upper bound).
        assert_feasible(result.schedule)
        assert "limit_errors" in result.diagnostics

    def test_priority_cap_one(self, uniform_instance):
        config = EptasConfig(eps=0.25, practical_priority_cap=1)
        result = eptas_schedule(uniform_instance, eps=0.25, config=config)
        assert_feasible(result.schedule)
