"""Unit tests for :mod:`repro.core.instance`."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, InvalidInstanceError, Job

from helpers import drawn_instances, reference_resized


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


def _jobs_built(instance: Instance) -> bool:
    """Whether the instance's job tuple exists, read past the on-demand hook."""
    try:
        Instance._jobs.__get__(instance, Instance)
    except AttributeError:
        return False
    return True


def _table_reads(instance: Instance) -> list:
    """Every read that the job table answers without a Job."""
    ids = list(instance.job_ids)
    return [
        instance.name,
        instance.num_machines,
        instance.num_jobs,
        instance.num_bags,
        instance.bag_indices,
        ids,
        instance.rows_of(ids).tolist(),
        [job_id in instance for job_id in ids],
        -1 in instance,
        len(instance),
        instance.total_work.hex(),
        instance.max_job_size.hex(),
        instance.job_id_by_row,
        *(
            (array.dtype.str, array.tobytes())
            for array in (instance.sizes, instance.job_bags, instance.row_ids)
        ),
    ]


def _job_reads(instance: Instance) -> list:
    """Every read that needs the Job tuple or the bag map."""
    try:
        instance.validate()
        validation = None
    except InvalidInstanceError as exc:
        validation = str(exc)
    return [
        instance.jobs,
        [instance.job(job_id) for job_id in instance.job_ids],
        list(instance),
        [instance.bag(bag) for bag in (*instance.bag_indices, -1)],
        instance.bags(),
        instance.bag_sizes(),
        instance.to_dict(),
        instance.stats(),
        validation,
        instance.scaled(2.0).to_dict(),
        instance._resized(instance.sizes * 3.0, name="again").to_dict(),
    ]


class TestJobsOnDemand:
    """A resized copy (every guess's rounded instance) builds its Job tuple
    and bag map only when read, and then reads like the eager copy it
    replaced, which copied every job when it was made."""

    def test_table_reads_build_no_job(self, tiny_instance):
        resized = tiny_instance._resized(tiny_instance.sizes * 2.0, name="twice")
        eager = reference_resized(tiny_instance, tiny_instance.sizes * 2.0, name="twice")
        assert _table_reads(resized) == _table_reads(eager)
        assert not _jobs_built(resized)
        assert resized.jobs == eager.jobs
        assert _jobs_built(resized)
        # Built, it is a plain Instance, whose reads skip the on-demand hook.
        assert type(resized) is Instance

    @settings(max_examples=150, deadline=None)
    @given(
        drawn_instances(),
        st.floats(0.01, 100.0),
        st.sampled_from(["as is", "copy", "pickle", "deepcopy"]),
    )
    def test_every_read_equals_the_eager_copy(self, instance, factor, passage):
        sizes = instance.sizes * factor
        resized = instance._resized(sizes, name="resized")
        if passage == "copy":
            resized = copy.copy(resized)
        elif passage == "pickle":
            resized = pickle.loads(pickle.dumps(resized))
        elif passage == "deepcopy":
            resized = copy.deepcopy(resized)
        eager = reference_resized(instance, sizes, name="resized")
        assert _table_reads(resized) == _table_reads(eager)
        assert _job_reads(resized) == _job_reads(eager)

    def test_repeated_ids(self):
        # Id 1 sits in rows 0 and 2 (only possible without validation).
        source = Instance(
            [Job(1, 0.3, 0), Job(2, 0.2, 1), Job(1, 0.7, 1)], 2, name="repeated", validate=False
        )
        for passage in (lambda x: x, copy.copy, lambda x: pickle.loads(pickle.dumps(x))):
            resized = passage(source._resized(source.sizes * 2.0, name="resized"))
            eager = reference_resized(source, source.sizes * 2.0, name="resized")
            assert _table_reads(resized) == _table_reads(eager)
            assert resized.row_ids.tolist() == [1, 2, 1]
            assert _job_reads(resized) == _job_reads(eager)

    def test_unknown_attributes_still_raise(self, tiny_instance):
        resized = tiny_instance._resized(tiny_instance.sizes, name="same")
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            resized.missing  # noqa: B018
        assert not _jobs_built(resized)


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
