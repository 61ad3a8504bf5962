"""Unit tests for the instance transformation and its inverse (Lemmas 2-4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import lpt_schedule
from repro.core import AlgorithmError, Instance, Job, Schedule
from repro.eptas import (
    ConstantsMode,
    classify_bags,
    classify_jobs,
    forward_transform_schedule,
    reinsert_medium_jobs,
    revert_to_original,
    transform_instance,
)
from repro.flows import AssignmentResult

from helpers import drawn_instances


def _build_pipeline(instance: Instance, eps: float = 0.25, cap: int = 1):
    """Classify + transform a normalised instance with a small priority cap."""
    job_classes = classify_jobs(instance, eps)
    bag_classes = classify_bags(
        instance, job_classes, mode=ConstantsMode.PRACTICAL, practical_priority_cap=cap
    )
    record = transform_instance(instance, job_classes, bag_classes)
    return job_classes, bag_classes, record


def _mixed_instance(seed: int = 0, *, with_medium: bool = True) -> Instance:
    """Normalised-unit instance with many bags holding large + small (+ medium) jobs."""
    rng = np.random.default_rng(seed)
    sizes: list[float] = []
    bags: list[int] = []
    for bag in range(12):
        sizes.append(float(rng.choice([0.55, 0.35])))
        bags.append(bag)
        for _ in range(2):
            sizes.append(float(rng.uniform(0.01, 0.05)))
            bags.append(bag)
        if with_medium and bag % 4 == 1:
            sizes.append(0.1)
            bags.append(bag)
    return Instance.from_sizes(sizes, bags, num_machines=6, name=f"mixed-{seed}")


def _one_split_bag():
    """Bag 0 holds a large (job 0), a medium (job 1) and a small job (job 2);
    bag 1 holds two large jobs and is the priority bag, so bag 0 is split:
    job 0 moves to companion bag 2, job 1 is removed and fillers 5 and 6
    (size 0.1) stand in for jobs 0 and 1.  Five machines."""
    instance = Instance(
        [Job(0, 0.6, 0), Job(1, 0.3, 0), Job(2, 0.1, 0), Job(3, 0.6, 1), Job(4, 0.6, 1)], 5
    )
    job_classes = classify_jobs(instance, 0.5, k=1)
    bag_classes = classify_bags(instance, job_classes, practical_priority_cap=1)
    record = transform_instance(instance, job_classes, bag_classes)
    assert record.companion_bag == {0: 2}
    assert record.removed_medium == {0: [1]}
    assert record.filler_for == {5: 0, 6: 1}
    return record


class TestTransformInstance:
    def test_non_priority_bags_are_split(self):
        instance = _mixed_instance()
        job_classes, bag_classes, record = _build_pipeline(instance)
        assert record.companion_bag, "expected at least one transformed bag"
        for bag, companion in record.companion_bag.items():
            assert bag in bag_classes.non_priority
            # companion bags hold only large jobs of the original bag
            companion_jobs = record.transformed.bag(companion)
            assert companion_jobs
            assert all(job.id in job_classes.large for job in companion_jobs)
            # the original bag now holds only small jobs and fillers
            for job in record.transformed.bag(bag):
                assert job.id in job_classes.small or job.is_filler()

    def test_priority_bags_untouched(self):
        instance = _mixed_instance()
        _, bag_classes, record = _build_pipeline(instance)
        for bag in bag_classes.priority:
            original_ids = {job.id for job in instance.bag(bag)}
            transformed_ids = {job.id for job in record.transformed.bag(bag)}
            assert original_ids == transformed_ids

    def test_filler_count_matches_heavy_jobs(self):
        instance = _mixed_instance()
        job_classes, _, record = _build_pipeline(instance)
        for bag in record.companion_bag:
            heavy = [
                job
                for job in instance.bag(bag)
                if job.id in job_classes.medium_or_large
            ]
            assert len(record.fillers_by_bag[bag]) == len(heavy)

    def test_filler_sizes_equal_largest_small_job(self):
        instance = _mixed_instance()
        job_classes, _, record = _build_pipeline(instance)
        for bag in record.companion_bag:
            smalls = [
                job.size
                for job in instance.bag(bag)
                if job.id in job_classes.small
            ]
            p_max = max(smalls, default=0.0)
            for filler_id in record.fillers_by_bag[bag]:
                assert record.transformed.job(filler_id).size == pytest.approx(p_max)

    def test_medium_jobs_removed_from_transformed_but_in_augmented(self):
        instance = _mixed_instance()
        _, _, record = _build_pipeline(instance)
        removed = [job_id for ids in record.removed_medium.values() for job_id in ids]
        assert removed, "the crafted instance should have medium jobs in non-priority bags"
        for job_id in removed:
            assert job_id not in record.transformed
            assert job_id in record.augmented

    def test_bag_sizes_never_exceed_machines(self):
        instance = _mixed_instance()
        _, _, record = _build_pipeline(instance)
        for count in record.transformed.bag_sizes().values():
            assert count <= instance.num_machines
        for count in record.augmented.bag_sizes().values():
            assert count <= instance.num_machines

    def test_instance_without_non_priority_bags_is_unchanged(self):
        instance = Instance.from_sizes([0.5, 0.6, 0.7], bags=[0, 1, 2], num_machines=3)
        job_classes = classify_jobs(instance, 0.5)
        bag_classes = classify_bags(instance, job_classes, practical_priority_cap=10)
        record = transform_instance(instance, job_classes, bag_classes)
        assert not record.companion_bag
        assert record.transformed is record.augmented is instance


class TestIdentityTransformation:
    """Nothing to split: the record is the identity on the input instance."""

    @settings(max_examples=300, deadline=None)
    @given(drawn_instances(), st.sampled_from([0.5, 0.25]), st.integers(1, 4))
    def test_identity_exactly_when_every_heavy_bag_is_a_priority_bag(
        self, instance, eps, cap
    ):
        job_classes, bag_classes, record = _build_pipeline(instance, eps, cap)
        heavy_bags = {instance.job(job_id).bag for job_id in job_classes.medium_or_large}
        split = heavy_bags - bag_classes.priority
        assert set(record.companion_bag) == split
        if split:
            assert record.transformed is not instance
            return
        assert record.original is record.transformed is record.augmented is instance
        assert record.job_classes is job_classes
        assert record.bag_classes is bag_classes
        assert record.filler_for == {} and record.fillers_by_bag == {}
        assert record.removed_medium == {} and record.moved_large == {}

    def test_a_non_priority_bag_of_small_jobs_only_is_no_reason_to_split(self):
        # Bag 0 holds the two large jobs and is the priority bag; bag 1 holds
        # small jobs only, so nothing is split although bag 1 is non-priority.
        instance = Instance([Job(0, 0.6, 0), Job(1, 0.6, 0), Job(2, 0.1, 1)], 2)
        job_classes, bag_classes, record = _build_pipeline(instance, 0.5, 1)
        assert bag_classes.non_priority == {1}
        assert record.transformed is instance
        schedule = Schedule(instance, {0: 0, 1: 1, 2: 0})
        assert reinsert_medium_jobs(record, schedule).assignment == schedule.assignment
        assert revert_to_original(record, schedule).assignment == schedule.assignment


class TestForwardTransform:
    """Lemma 2: a schedule of I becomes a schedule of I' losing <= (1+eps)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_lemma2_bound(self, seed):
        eps = 0.25
        instance = _mixed_instance(seed)
        schedule = lpt_schedule(instance).schedule
        _, _, record = _build_pipeline(instance, eps)
        transformed_schedule = forward_transform_schedule(record, schedule)
        transformed_schedule.validate(require_complete=True)
        assert transformed_schedule.makespan() <= (1 + eps) * schedule.makespan() + 1e-9

    def test_fillers_follow_their_source(self, ):
        instance = _mixed_instance(1)
        schedule = lpt_schedule(instance).schedule
        _, _, record = _build_pipeline(instance)
        transformed_schedule = forward_transform_schedule(record, schedule)
        for filler_id, source_id in record.filler_for.items():
            assert transformed_schedule.machine_of(filler_id) == schedule.machine_of(source_id)


class TestReinsertMedium:
    """Lemma 3: medium jobs return on machines free of their companion bag."""

    @pytest.mark.parametrize("seed", range(3))
    def test_reinsertion_feasible_and_bounded(self, seed):
        eps = 0.25
        instance = _mixed_instance(seed)
        _, _, record = _build_pipeline(instance, eps)
        base = lpt_schedule(record.transformed).schedule
        augmented = reinsert_medium_jobs(record, base)
        augmented.validate(require_complete=True)
        # Increase bounded by 2 eps plus one medium job of slack (integral rounding).
        assert augmented.makespan() <= base.makespan() + 2 * eps + 0.25 + 1e-9

    def test_no_medium_jobs_is_a_noop(self):
        instance = _mixed_instance(0, with_medium=False)
        _, _, record = _build_pipeline(instance)
        base = lpt_schedule(record.transformed).schedule
        augmented = reinsert_medium_jobs(record, base)
        assert augmented.assignment == base.assignment

    def test_medium_jobs_separated_from_companion_large_jobs(self):
        instance = _mixed_instance(2)
        _, _, record = _build_pipeline(instance)
        base = lpt_schedule(record.transformed).schedule
        augmented = reinsert_medium_jobs(record, base)
        for bag, medium_ids in record.removed_medium.items():
            companion = record.companion_bag[bag]
            companion_machines = {
                augmented.machine_of(job.id) for job in record.augmented.bag(companion)
            }
            # distinct machines for all companion-bag jobs (including mediums)
            assert len(companion_machines) == len(record.augmented.bag(companion))
            for job_id in medium_ids:
                assert augmented.machine_of(job_id) is not None

    def test_greedy_completion_takes_the_least_loaded_free_machine(self, monkeypatch):
        # A flow that places nothing leaves job 1 to the greedy completion:
        # machine 0 holds companion bag 2, and machines 3 and 4 tie at 0.1
        # below machines 1 and 2, so job 1 goes to machine 3.
        record = _one_split_bag()
        base = Schedule(record.transformed, {0: 0, 3: 1, 4: 2, 2: 3, 5: 0, 6: 4})
        monkeypatch.setattr(
            "repro.eptas.transformation.solve_bag_assignment",
            lambda problem: AssignmentResult(assignment={}, placed=0, satisfied=False),
        )
        augmented = reinsert_medium_jobs(record, base)
        assert record.diagnostics["medium_placed_by_flow"] == 0
        assert record.diagnostics["medium_placed_by_fallback"] == 1
        assert augmented.machine_of(1) == 3
        augmented.validate(require_complete=True)


class TestRevert:
    """Lemma 4: back to the original instance without conflicts or growth."""

    @pytest.mark.parametrize("seed", range(4))
    def test_revert_is_feasible_and_no_higher(self, seed):
        instance = _mixed_instance(seed)
        _, _, record = _build_pipeline(instance)
        base = lpt_schedule(record.transformed).schedule
        augmented = reinsert_medium_jobs(record, base)
        reverted = revert_to_original(record, augmented)
        reverted.validate(require_complete=True)
        assert reverted.makespan() <= augmented.makespan() + 1e-9

    def test_revert_resolves_forced_conflicts(self):
        """Place a small job deliberately on its bag's large-job machine."""
        instance = _mixed_instance(3)
        job_classes, _, record = _build_pipeline(instance)
        base = lpt_schedule(record.transformed).schedule
        # Force a conflict: move one small job onto the machine of a large job
        # of the same original bag (they are different bags in I', so this is
        # feasible for I' but conflicts in I).
        for bag, companion in record.companion_bag.items():
            smalls = [
                job
                for job in record.transformed.bag(bag)
                if not job.is_filler() and job.id in job_classes.small
            ]
            larges = record.transformed.bag(companion)
            if smalls and larges:
                target_machine = base.machine_of(larges[0].id)
                base.assign(smalls[0].id, target_machine)
                break
        else:
            pytest.skip("no transformed bag with both small and large jobs")
        augmented = reinsert_medium_jobs(record, base)
        reverted = revert_to_original(record, augmented)
        assert reverted.is_conflict_free()
        reverted.validate(require_complete=True)

    def test_an_unassigned_job_is_named_in_original_order(self):
        # Jobs 2 and 4 of the original instance are missing; 2 comes first.
        record = _one_split_bag()
        augmented = Schedule(record.augmented, {0: 0, 1: 1, 3: 2, 5: 1, 6: 0})
        with pytest.raises(
            AlgorithmError,
            match=r"^revert: job 2 of the original instance is unassigned "
            r"in the augmented solution$",
        ):
            revert_to_original(record, augmented)

    def test_fallback_when_every_filler_sits_on_a_heavy_machine(self):
        # Small job 2 shares machine 0 with large job 0 of its original bag,
        # and fillers 5 and 6 sit on the heavy machines 1 and 0, so no filler
        # position is free: job 2 goes to machine 4, the least-loaded machine
        # without a job of bag 0.
        record = _one_split_bag()
        augmented = Schedule(
            record.augmented, {0: 0, 1: 1, 2: 0, 3: 2, 4: 3, 5: 1, 6: 0}
        )
        reverted = revert_to_original(record, augmented)
        assert record.diagnostics["revert_swaps"] == 0
        assert record.diagnostics["revert_fallback_moves"] == 1
        assert reverted.assignment == {0: 0, 1: 1, 2: 4, 3: 2, 4: 3}
        reverted.validate(require_complete=True)
