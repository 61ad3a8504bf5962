"""Unit tests for :mod:`repro.core.job`."""

from __future__ import annotations

import pytest

from repro.core import Job


class TestJobConstruction:
    def test_basic_attributes(self):
        job = Job(id=3, size=2.5, bag=1)
        assert job.id == 3
        assert job.size == 2.5
        assert job.bag == 1
        assert job.meta == {}

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Job(id=-1, size=1.0, bag=0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Job(id=0, size=-0.5, bag=0)

    @pytest.mark.parametrize("size", [float("nan"), float("inf")])
    def test_non_finite_size_rejected(self, size):
        with pytest.raises(ValueError, match="finite"):
            Job(id=0, size=size, bag=0)

    def test_negative_bag_rejected(self):
        with pytest.raises(ValueError):
            Job(id=0, size=1.0, bag=-2)

    def test_equality_ignores_meta(self):
        a = Job(id=1, size=1.0, bag=0, meta={"x": 1})
        b = Job(id=1, size=1.0, bag=0, meta={"y": 2})
        assert a == b

    def test_jobs_are_hashable(self):
        jobs = {Job(id=1, size=1.0, bag=0), Job(id=2, size=1.0, bag=0)}
        assert len(jobs) == 2


class TestJobFiller:
    def test_filler_detection(self):
        filler = Job(id=5, size=0.5, bag=2, meta={"filler_for": 3})
        assert filler.is_filler()

    def test_non_filler(self):
        job = Job(id=5, size=0.5, bag=2)
        assert not job.is_filler()


class TestJobCopies:
    def test_with_size_keeps_identity(self):
        job = Job(id=7, size=1.0, bag=3, meta={"k": "v"})
        copy = job.with_size(2.0)
        assert copy.id == 7 and copy.bag == 3 and copy.size == 2.0
        assert copy.meta == {"k": "v"}

    def test_with_bag(self):
        job = Job(id=7, size=1.0, bag=3)
        assert job.with_bag(9).bag == 9
        assert job.with_bag(9).size == 1.0


class TestJobSerialization:
    def test_roundtrip(self):
        job = Job(id=4, size=1.25, bag=2, meta={"service": 7})
        assert Job.from_dict(job.to_dict()) == job
        assert Job.from_dict(job.to_dict()).meta == {"service": 7}

    @pytest.mark.parametrize("size", ["nan", "inf"])
    def test_from_dict_rejects_non_finite_size(self, size):
        with pytest.raises(ValueError, match="finite"):
            Job.from_dict({"id": 0, "size": size, "bag": 0})

    def test_to_dict_omits_empty_meta(self):
        assert "meta" not in Job(id=1, size=1.0, bag=0).to_dict()
