"""Unit tests for :mod:`repro.core.instance`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Instance, InvalidInstanceError, Job


class TestInstanceConstruction:
    def test_from_sizes(self):
        instance = Instance.from_sizes([1.0, 2.0, 3.0], bags=[0, 0, 1], num_machines=2)
        assert instance.num_jobs == 3
        assert instance.num_bags == 2
        assert instance.num_machines == 2
        assert instance.total_work == 6.0

    def test_without_bags_creates_singletons(self):
        instance = Instance.without_bags([1.0, 2.0, 3.0], num_machines=2)
        assert instance.num_bags == 3
        assert all(len(members) == 1 for members in instance.bags().values())

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance([Job(id=0, size=1.0, bag=0), Job(id=0, size=2.0, bag=1)], 2)

    def test_zero_machines_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_sizes([1.0], bags=[0], num_machines=0)

    def test_oversized_bag_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_sizes([1.0, 1.0, 1.0], bags=[0, 0, 0], num_machines=2)

    @pytest.mark.parametrize("size", [float("nan"), float("inf")])
    def test_from_dict_rejects_non_finite_size(self, size):
        data = {
            "num_machines": 2,
            "jobs": [
                {"id": 0, "size": 1.0, "bag": 0},
                {"id": 1, "size": size, "bag": 1},
                {"id": 2, "size": 0.5, "bag": 2},
            ],
        }
        with pytest.raises(ValueError, match="finite"):
            Instance.from_dict(data)

    def test_validation_rejects_a_non_finite_size_that_skipped_job_checks(self):
        # Job._resized does not validate; the instance check still catches it.
        unchecked = Job(id=1, size=1.0, bag=0)._resized(float("nan"))
        with pytest.raises(InvalidInstanceError, match="non-finite size nan"):
            Instance([Job(id=0, size=1.0, bag=1), unchecked], 2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_sizes([1.0, 2.0], bags=[0], num_machines=1)


class TestInstanceAccessors:
    def test_job_lookup(self, tiny_instance):
        assert tiny_instance.job(0).size == 3.0
        assert 0 in tiny_instance
        assert 99 not in tiny_instance
        with pytest.raises(KeyError):
            tiny_instance.job(99)

    def test_job_table(self):
        instance = Instance(
            [Job(id=40, size=1.5, bag=7), Job(id=3, size=0.5, bag=2), Job(id=9, size=2.0, bag=7)],
            2,
            name="sparse",
        )
        assert list(instance.job_ids) == [40, 3, 9]
        assert instance.rows_of([9, 40, 3]).tolist() == [2, 0, 1]
        assert instance.job_bags.tolist() == [7, 2, 7]
        assert instance.sizes[instance.rows_of({3: 0, 9: 1})].tolist() == [0.5, 2.0]
        with pytest.raises(ValueError):
            instance.job_bags[0] = 1
        with pytest.raises(KeyError) as raised:
            instance.rows_of([3, 5, 6])
        assert str(raised.value) == "'no job with id 5 in instance sparse'"
        with pytest.raises(KeyError) as raised:
            instance.job(5)
        assert str(raised.value) == "'no job with id 5 in instance sparse'"

    def test_sizes_vector_is_readonly(self, tiny_instance):
        sizes = tiny_instance.sizes
        assert sizes.tolist() == [3.0, 2.0, 2.0, 1.0]
        with pytest.raises(ValueError):
            sizes[0] = 5.0

    def test_bag_views(self, tiny_instance):
        assert [job.id for job in tiny_instance.bag(0)] == [0, 1]
        assert tiny_instance.bag(42) == ()
        assert tiny_instance.bag_sizes() == {0: 2, 1: 2}

    def test_iteration_and_len(self, tiny_instance):
        assert len(tiny_instance) == 4
        assert [job.id for job in tiny_instance] == [0, 1, 2, 3]


class TestInstanceDerived:
    def test_scaled(self, tiny_instance):
        scaled = tiny_instance.scaled(2.0)
        assert scaled.total_work == pytest.approx(2 * tiny_instance.total_work)
        assert scaled.num_machines == tiny_instance.num_machines
        with pytest.raises(ValueError):
            tiny_instance.scaled(0.0)

    def test_stats(self, tiny_instance):
        stats = tiny_instance.stats()
        assert stats.num_jobs == 4
        assert stats.max_job_size == 3.0
        assert stats.area_lower_bound == pytest.approx(4.0)
        assert stats.max_bag_size == 2
        assert isinstance(stats.to_dict(), dict)


class TestInstanceSerialization:
    def test_json_roundtrip(self, tiny_instance):
        text = tiny_instance.to_json()
        restored = Instance.from_json(text)
        assert restored.num_jobs == tiny_instance.num_jobs
        assert restored.num_machines == tiny_instance.num_machines
        assert [j.size for j in restored.jobs] == [j.size for j in tiny_instance.jobs]

    def test_file_roundtrip(self, tiny_instance, tmp_path):
        path = tiny_instance.save(tmp_path / "instance.json")
        restored = Instance.load(path)
        assert restored.name == tiny_instance.name
        assert restored.bag_sizes() == tiny_instance.bag_sizes()

    def test_numpy_total_matches_python_sum(self, uniform_instance):
        assert uniform_instance.total_work == pytest.approx(
            sum(job.size for job in uniform_instance.jobs)
        )
        assert isinstance(uniform_instance.sizes, np.ndarray)
