"""Unit and integration tests for the EPTAS driver (Theorem 1)."""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines import lpt_schedule
from repro.bounds import best_lower_bound, combined_lower_bound
from repro.core import Instance, Job
from repro.core.errors import AlgorithmError
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

from helpers import assert_feasible, drawn_instances


# The EPTAS at eps = 1/2 on the uniform instance spends about a minute in
# HiGHS.  The tests that only read its result share one run instead of
# repeating it.
@pytest.fixture(scope="module")
def uniform_result(uniform_instance):
    return eptas_schedule(uniform_instance, eps=0.5)


@pytest.fixture(scope="module")
def generous_guess(uniform_instance):
    """``solve_for_guess`` at eps = 1/2 and the LPT makespan as the guess."""
    config = EptasConfig(eps=0.5).normalised()
    upper = lpt_schedule(uniform_instance).makespan
    return solve_for_guess(uniform_instance, upper, config)


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

    def test_diagnostics_populated(self, uniform_result):
        result = uniform_result
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

    def test_never_worse_than_greedy_upper_bound(self, uniform_instance, uniform_result):
        result = uniform_result
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
    def test_feasible_at_generous_guess(self, generous_guess):
        schedule, report = generous_guess
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

    def test_report_to_dict(self, generous_guess):
        _, report = generous_guess
        data = report.to_dict()
        assert data["feasible"] is True
        assert data["k"] >= 1
        assert data["num_patterns"] == report.num_patterns


def _regrouped(record):
    """The record the transformation loop builds when it splits nothing: I'
    and the augmented instance are new instances of the jobs grouped by bag."""
    original = record.original
    jobs = [job for members in original.bags().values() for job in members]
    machines = original.num_machines
    return replace(
        record,
        transformed=Instance(jobs, machines, name=f"{original.name}#transformed", validate=False),
        augmented=Instance(jobs, machines, name=f"{original.name}#augmented", validate=False),
    )


def _guess_outcome(instance, guess, config):
    """``solve_for_guess``'s assignment (in order) and report, or its error
    with the instance-name suffixes of the regrouped record taken out."""
    try:
        schedule, report = solve_for_guess(instance, guess, config)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        message = str(exc).replace("#transformed", "").replace("#augmented", "")
        return type(exc), message
    assignment = list(schedule.assignment.items()) if schedule is not None else None
    return assignment, report.to_dict()


def _solve_both_ways(instance, guess, config):
    """The outcome of ``solve_for_guess``, the outcome with every identity
    record regrouped, and whether the guess's transformation was the identity."""
    transform = driver.transform_instance
    identities = []

    def regrouping(working, job_classes, bag_classes):
        record = transform(working, job_classes, bag_classes)
        identities.append(record.transformed is working)
        return _regrouped(record) if identities[-1] else record

    direct = _guess_outcome(instance, guess, config)
    with mock.patch.object(driver, "transform_instance", regrouping):
        regrouped = _guess_outcome(instance, guess, config)
    return direct, regrouped, identities == [True]


class TestIdentityTransformation:
    """A guess whose transformation is the identity skips building I' and
    classifying it again; its outcome is the one with I' built as the loop
    built it."""

    @settings(max_examples=40, deadline=None)
    @given(drawn_instances(), st.sampled_from([0.5, 0.25]), st.sampled_from(["lower", "lpt"]))
    def test_drawn_instances(self, instance, eps, which):
        if which == "lpt":
            guess = lpt_schedule(instance).makespan
        else:
            guess = best_lower_bound(instance).best
        assume(guess > 0)
        direct, regrouped, _ = _solve_both_ways(instance, guess, EptasConfig(eps=eps).normalised())
        assert direct == regrouped

    @pytest.mark.parametrize(
        "generated",
        [
            uniform_random_instance(num_jobs=400, num_machines=10, num_bags=40, seed=1),
            two_size_instance(num_machines=12, large_per_machine=2, seed=0),
            replica_workload_instance(num_services=40, num_machines=8, seed=0),
        ],
        ids=["uniform", "two-size", "replicas"],
    )
    def test_identity_guesses_of_the_families(self, generated):
        instance = generated.instance
        guess = best_lower_bound(instance).best
        direct, regrouped, identity = _solve_both_ways(
            instance, guess, EptasConfig(eps=0.5).normalised()
        )
        assert identity
        assert direct == regrouped
        assert isinstance(direct[0], list)


class TestRoundedJobsOnDemand:
    def test_an_all_small_guess_copies_no_job(self):
        # The smoke ``uniform`` instance of the EPTAS benchmark's many-jobs
        # workload: at eps = 1/2 every job of every guess is small, so no
        # stage reads a Job of the rounded instance, and none is copied.
        instance = uniform_random_instance(
            num_jobs=2000, num_machines=20, num_bags=100, seed=0
        ).instance
        copied: list[int] = []
        resize = Job._resized

        def counting(job: Job, size: float) -> Job:
            copied.append(job.id)
            return resize(job, size)

        with mock.patch.object(Job, "_resized", counting):
            result = eptas_schedule(instance, eps=0.5)
        feasible = [attempt for attempt in result.diagnostics["attempts"] if attempt["feasible"]]
        assert feasible
        assert all(attempt["non_priority_jobs"] == 2000 for attempt in feasible)
        assert copied == []


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

        # The summary keys describe the attempt whose schedule is returned:
        # the first feasible attempt with the smallest makespan.
        returned = min(
            (attempt for attempt in attempts if attempt["feasible"]),
            key=lambda attempt: attempt["makespan"],
        )
        assert returned["makespan"] == result.makespan
        for key in (
            "num_patterns",
            "integer_variables",
            "continuous_variables",
            "constraints",
            "k",
            "num_priority_bags",
            "num_non_priority_bags",
            "large_swaps",
            "repair_conflicts",
        ):
            assert diagnostics[key] == returned[key], key

    def test_attempts_say_how_the_lp_relaxation_ended(self, monkeypatch):
        def halved_bound(instance, **kwargs):
            report = best_lower_bound(instance, **kwargs)
            return replace(report, best=report.best / 2)

        monkeypatch.setattr(driver, "best_lower_bound", halved_bound)
        instance = uniform_random_instance(
            num_jobs=12, num_machines=3, num_bags=5, seed=1
        ).instance
        attempts = eptas_schedule(instance, eps=0.5).diagnostics["attempts"]
        outcomes = [(a["milp_status"], a["milp_lp_relaxation"]) for a in attempts]
        # An integral LP is the MILP's optimum and an infeasible one its
        # certificate; a fractional LP only bounds the guess.
        for status, lp_relaxation in outcomes:
            assert lp_relaxation in ("integral", "fractional", "infeasible")
            if lp_relaxation == "integral":
                assert status == "optimal"
            if lp_relaxation == "infeasible":
                assert status == "infeasible"
        assert {lp for _, lp in outcomes} == {"integral", "fractional", "infeasible"}


class TestConfigurations:
    def test_eps_defaults_to_the_configs(self):
        instance = Instance.from_sizes(
            [3.0, 2.0, 2.0, 1.0], bags=[0, 1, 1, 2], num_machines=2
        )
        config = EptasConfig(eps=0.25)
        assert eptas_schedule(instance, config=config).params["eps"] == 0.25
        assert eptas_schedule(instance).params["eps"] == 0.5
        # An explicit eps still overrides the config's.
        assert eptas_schedule(instance, 0.5, config=config).params["eps"] == 0.5

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
        # The aborted guess still leaves one (infeasible) attempt record.
        attempts = result.diagnostics["attempts"]
        assert result.diagnostics["search_iterations"] == len(attempts) == 1
        assert not attempts[0]["feasible"]
        assert "max_patterns=2" in attempts[0]["limit"]

    def test_failed_guess_records_its_error(self, monkeypatch):
        def failing_enumeration(*args, **kwargs):
            raise AlgorithmError("enumeration failed")

        monkeypatch.setattr(driver, "enumerate_patterns", failing_enumeration)
        instance = uniform_random_instance(
            num_jobs=12, num_machines=3, num_bags=5, seed=0
        ).instance
        result = eptas_schedule(instance, eps=0.5)
        attempts = result.diagnostics["attempts"]
        assert result.diagnostics["search_iterations"] == len(attempts) >= 1
        assert result.diagnostics["attempt_errors"] == ["enumeration failed"] * len(attempts)
        assert all(attempt["error"] == "enumeration failed" for attempt in attempts)
        assert not any(attempt["feasible"] for attempt in attempts)
        assert_feasible(result.schedule)

    def test_priority_cap_one(self, uniform_instance):
        config = EptasConfig(eps=0.25, practical_priority_cap=1)
        result = eptas_schedule(uniform_instance, eps=0.25, config=config)
        assert_feasible(result.schedule)
