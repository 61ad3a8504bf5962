"""Unit tests for job/bag classification (Lemma 1, Definition 2)."""

from __future__ import annotations

import pytest

from repro.core import Instance
from repro.eptas import (
    ConstantsMode,
    classify_bags,
    classify_jobs,
    compute_k,
    scale_and_round,
)
from repro.generators import uniform_random_instance


def _normalised_instance(seed: int = 0) -> Instance:
    """A scaled-and-rounded instance whose optimum guess is its LPT value."""
    from repro.baselines import lpt_schedule

    raw = uniform_random_instance(
        num_jobs=30, num_machines=5, num_bags=10, size_range=(0.01, 1.0), seed=seed
    ).instance
    guess = lpt_schedule(raw).makespan
    return scale_and_round(raw, 0.25, guess)


class TestComputeK:
    def test_lemma1_window_mass(self):
        eps = 0.25
        instance = _normalised_instance()
        k = compute_k(instance, eps)
        assert 1 <= k <= int(1 / eps**2) + 1
        window_mass = sum(
            job.size for job in instance.jobs if eps ** (k + 1) <= job.size < eps**k
        )
        assert window_mass <= eps**2 * instance.num_machines + 1e-9

    def test_k_exists_for_multiple_seeds(self):
        eps = 0.5
        for seed in range(5):
            instance = _normalised_instance(seed)
            k = compute_k(instance, eps)
            assert k >= 1

    def test_empty_window_prefers_smallest_k(self):
        # All jobs large: the first window is empty, so k = 1 qualifies.
        instance = Instance.from_sizes([1.0, 0.9, 0.8], bags=[0, 1, 2], num_machines=3)
        assert compute_k(instance, 0.5) == 1


class TestClassifyJobs:
    def test_partition_is_complete_and_disjoint(self):
        instance = _normalised_instance()
        classes = classify_jobs(instance, 0.25)
        all_ids = {job.id for job in instance.jobs}
        assert classes.large | classes.medium | classes.small == all_ids
        assert not (classes.large & classes.medium)
        assert not (classes.large & classes.small)
        assert not (classes.medium & classes.small)

    def test_thresholds_respected(self):
        eps = 0.25
        instance = _normalised_instance()
        classes = classify_jobs(instance, eps)
        for job in instance.jobs:
            if job.id in classes.large:
                assert job.size >= classes.large_threshold - 1e-9
            elif job.id in classes.medium:
                assert classes.medium_threshold - 1e-9 <= job.size < classes.large_threshold
            else:
                assert job.size < classes.medium_threshold

    def test_class_of_and_summary(self):
        instance = _normalised_instance()
        classes = classify_jobs(instance, 0.25)
        summary = classes.summary()
        assert summary["num_large"] == len(classes.large)
        assert summary["num_medium"] == len(classes.medium)
        assert summary["num_small"] == len(classes.small)
        assert len(classes.large | classes.medium | classes.small) == instance.num_jobs

    def test_explicit_k_is_used(self):
        instance = _normalised_instance()
        classes = classify_jobs(instance, 0.25, k=2)
        assert classes.k == 2
        assert classes.large_threshold == pytest.approx(0.25**2)


class TestClassifyBags:
    def test_priority_and_non_priority_partition_bags(self):
        instance = _normalised_instance()
        job_classes = classify_jobs(instance, 0.25)
        bag_classes = classify_bags(instance, job_classes, practical_priority_cap=2)
        assert bag_classes.priority | bag_classes.non_priority == set(instance.bag_indices)
        assert not (bag_classes.priority & bag_classes.non_priority)

    def test_practical_cap_limits_priority_count(self):
        instance = _normalised_instance()
        job_classes = classify_jobs(instance, 0.25)
        small_cap = classify_bags(instance, job_classes, practical_priority_cap=1)
        big_cap = classify_bags(instance, job_classes, practical_priority_cap=100)
        assert len(small_cap.priority) <= len(big_cap.priority)

    def test_size_orderings_sorted_by_cardinality(self):
        instance = _normalised_instance()
        job_classes = classify_jobs(instance, 0.25)
        bag_classes = classify_bags(instance, job_classes)
        for size, ordering in bag_classes.size_orderings.items():
            counts = [
                sum(1 for job in instance.bag(bag) if abs(job.size - size) < 1e-9)
                for bag in ordering
            ]
            assert counts == sorted(counts, reverse=True)
            assert all(count > 0 for count in counts)

    def test_theory_mode_includes_large_bags(self):
        # One bag with many heavy jobs must be priority in THEORY mode.
        sizes = [0.5] * 4 + [0.6, 0.7]
        bags = [0, 0, 0, 0, 1, 2]
        instance = Instance.from_sizes(sizes, bags, num_machines=4)
        job_classes = classify_jobs(instance, 0.5, k=1)
        theory = classify_bags(
            instance, job_classes, mode=ConstantsMode.THEORY
        )
        assert 0 in theory.large_bags
        assert 0 in theory.priority

    def test_summary(self):
        instance = _normalised_instance()
        job_classes = classify_jobs(instance, 0.25)
        bag_classes = classify_bags(instance, job_classes)
        summary = bag_classes.summary()
        assert summary["num_priority"] == len(bag_classes.priority)
        assert summary["num_non_priority"] == len(bag_classes.non_priority)
        assert summary["b_prime"] == bag_classes.b_prime
