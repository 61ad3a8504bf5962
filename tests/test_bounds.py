"""Unit tests for :mod:`repro.bounds`."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import (
    area_lower_bound,
    bag_cardinality_lower_bound,
    best_lower_bound,
    combined_lower_bound,
    lp_relaxation_lower_bound,
    max_job_lower_bound,
    pairwise_lower_bound,
)
from repro.core import Instance, Job
from repro.exact import brute_force_optimum, build_assignment_model
from repro.generators import uniform_random_instance
from repro.milp import solve_lp_relaxation
from repro.solver import SolverService, service_scope


class TestIndividualBounds:
    def test_area_bound(self, tiny_instance):
        assert area_lower_bound(tiny_instance) == pytest.approx(4.0)

    def test_max_job_bound(self, tiny_instance):
        assert max_job_lower_bound(tiny_instance) == 3.0

    def test_pairwise_bound_plain(self):
        # 3 machines, 4 equal jobs: two of the top 4 must share a machine.
        instance = Instance.without_bags([5, 5, 5, 5], num_machines=3)
        assert pairwise_lower_bound(instance) == 10.0

    def test_pairwise_bound_no_extra_jobs(self):
        instance = Instance.without_bags([5, 5], num_machines=3)
        assert pairwise_lower_bound(instance) == 0.0

    def test_bag_cardinality_full_bag(self, full_bag_instance):
        # bag 0 has m=3 jobs of size 2, extra jobs of size 1 exist.
        assert bag_cardinality_lower_bound(full_bag_instance) == pytest.approx(3.0)

    def test_bag_cardinality_infeasible_bag(self):
        instance = Instance.from_sizes(
            [1, 1, 1], bags=[0, 0, 0], num_machines=2, validate=False
        )
        assert bag_cardinality_lower_bound(instance) == float("inf")

    def test_bag_cardinality_no_full_bags(self, singleton_bags_instance):
        assert bag_cardinality_lower_bound(singleton_bags_instance) == 0.0


def _reference_bag_cardinality(instance: Instance) -> float:
    """The bound's scan of every job once per full bag, its former loop."""
    m = instance.num_machines
    best = 0.0
    for bag, members in instance.bags().items():
        if len(members) > m:
            return float("inf")
        if len(members) == m and instance.num_jobs > m:
            min_inside = min(job.size for job in members)
            min_outside = min(
                (job.size for job in instance.jobs if job.bag != bag), default=0.0
            )
            best = max(best, min_inside + min_outside)
    return best


@st.composite
def _instances_with_full_bags(draw) -> Instance:
    """1-5 machines and 1-8 bags with sparse labels, the first bag full and
    each other bag holding 1 to m + 1 jobs (a bag of m + 1 makes the bound
    infinite); sizes from a short list, so minima tie, or any float in
    [0, 10].  Jobs come in a random order."""
    num_machines = draw(st.integers(min_value=1, max_value=5))
    labels = draw(st.lists(st.integers(0, 50), min_size=1, max_size=8, unique=True))
    counts = [num_machines] + [
        draw(st.integers(1, num_machines + 1)) for _ in labels[1:]
    ]
    size = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    )
    bags = [label for label, count in zip(labels, counts) for _ in range(count)]
    jobs = [Job(id=index, size=draw(size), bag=bag) for index, bag in enumerate(bags)]
    return Instance(draw(st.permutations(jobs)), num_machines, validate=False)


class TestBagCardinalityOracle:
    @settings(max_examples=300, deadline=None)
    @given(_instances_with_full_bags())
    def test_matches_the_scan_per_full_bag(self, instance):
        expected = _reference_bag_cardinality(instance)
        assert repr(bag_cardinality_lower_bound(instance)) == repr(expected)


class TestCombinedBounds:
    def test_combined_is_max(self, tiny_instance):
        combined = combined_lower_bound(tiny_instance)
        assert combined == max(
            area_lower_bound(tiny_instance),
            max_job_lower_bound(tiny_instance),
            pairwise_lower_bound(tiny_instance),
            bag_cardinality_lower_bound(tiny_instance),
        )

    def test_report_structure(self, tiny_instance):
        report = best_lower_bound(tiny_instance, use_lp=True)
        data = report.to_dict()
        assert data["best"] >= data["area"]
        assert data["lp_relaxation"] is not None

    def test_report_without_lp(self, tiny_instance):
        report = best_lower_bound(tiny_instance)
        assert report.lp_relaxation is None


class TestSoundness:
    """Every bound must be at most the true optimum."""

    @pytest.mark.parametrize("seed", range(5))
    def test_bounds_below_optimum_on_random_instances(self, seed):
        instance = uniform_random_instance(
            num_jobs=9, num_machines=3, num_bags=4, seed=seed
        ).instance
        optimum = brute_force_optimum(instance)
        report = best_lower_bound(instance, use_lp=True)
        assert report.best <= optimum + 1e-9
        assert report.lp_relaxation <= optimum + 1e-6

    def test_lp_bound_at_least_area_and_max(self, uniform_instance):
        lp = lp_relaxation_lower_bound(uniform_instance)
        assert lp >= area_lower_bound(uniform_instance) - 1e-6
        assert lp >= max_job_lower_bound(uniform_instance) - 1e-6

    def test_figure1_bound_is_tight(self, figure1_instance):
        # The figure-1 family has optimum exactly 1.
        assert combined_lower_bound(figure1_instance) == pytest.approx(1.0)


class _SpecRecordingService(SolverService):
    def __init__(self) -> None:
        super().__init__()
        self.specs: list = []

    def solve(self, model, *, spec="scipy", time_limit=None):
        self.specs.append(spec)
        return super().solve(model, spec=spec, time_limit=time_limit)


class TestLpBound:
    """The LP bound is the relaxed exact model, solved by the ``lp`` backend."""

    def test_one_lp_solve_through_the_service(self, tiny_instance):
        service = _SpecRecordingService()
        with service_scope(service):
            lp = lp_relaxation_lower_bound(tiny_instance)
        assert service.specs == ["lp"]
        relaxed = build_assignment_model(tiny_instance, symmetry_breaking=False)
        assert lp == solve_lp_relaxation(relaxed).objective
        assert lp == pytest.approx(4.0)

    def test_no_jobs_give_zero(self):
        empty = Instance.from_sizes([], bags=[], num_machines=2)
        service = _SpecRecordingService()
        with service_scope(service):
            assert lp_relaxation_lower_bound(empty) == 0.0
        assert service.specs == []

    def test_a_bag_that_does_not_fit_gives_inf(self):
        instance = Instance.from_sizes(
            [1, 1, 1], bags=[0, 0, 0], num_machines=2, validate=False
        )
        assert lp_relaxation_lower_bound(instance) == float("inf")
