"""Unit tests for scaling and geometric rounding (Section 2)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import best_lower_bound
from repro.core import Instance, Job
from repro.eptas import round_instance, round_up_to_power, scale_and_round
from repro.eptas.rounding import round_up_sizes
from repro.generators import generate

from helpers import drawn_instances

_EPSILONS = [0.5, 1 / 3, 0.25, 0.2, 0.1]


class TestRoundUpToPower:
    def test_result_is_power_of_one_plus_eps(self):
        eps = 0.25
        for size in (0.013, 0.2, 0.77, 1.0, 3.5, 11.0):
            rounded = round_up_to_power(size, eps)
            exponent = math.log(rounded, 1 + eps)
            assert abs(exponent - round(exponent)) < 1e-6

    def test_never_smaller_and_within_factor(self):
        eps = 0.5
        for size in (0.01, 0.5, 0.9, 1.0, 7.3):
            rounded = round_up_to_power(size, eps)
            assert rounded >= size - 1e-12
            assert rounded <= size * (1 + eps) + 1e-12

    def test_exact_powers_stay_fixed(self):
        eps = 0.5
        for exponent in (-3, -1, 0, 2, 5):
            value = (1 + eps) ** exponent
            assert round_up_to_power(value, eps) == pytest.approx(value)

    def test_zero_stays_zero(self):
        assert round_up_to_power(0.0, 0.25) == 0.0


class TestRoundInstance:
    def test_all_sizes_rounded(self, uniform_instance):
        eps = 0.25
        rounded = round_instance(uniform_instance, eps)
        assert rounded.num_jobs == uniform_instance.num_jobs
        for original, new in zip(uniform_instance.jobs, rounded.jobs):
            assert new.id == original.id
            assert new.bag == original.bag
            assert original.size <= new.size <= original.size * (1 + eps) + 1e-12

    def test_total_work_bounded(self, uniform_instance):
        eps = 0.5
        rounded = round_instance(uniform_instance, eps)
        assert rounded.total_work <= (1 + eps) * uniform_instance.total_work + 1e-9


class TestScaleAndRound:
    def test_assignment_transfer_makespan(self):
        instance = Instance.from_sizes([2.0, 1.0], bags=[0, 1], num_machines=2)
        result = scale_and_round(instance, 0.5, 2.0)
        # job sizes become 1.0 and 0.5 -> rounded to powers of 1.5: 1.0, 0.5->? 0.5 is not a power of 1.5
        for original, scaled in zip(instance.jobs, result.jobs):
            assert scaled.size >= original.size / 2.0 - 1e-12

    def test_invalid_guess_rejected(self, uniform_instance):
        with pytest.raises(ValueError):
            scale_and_round(uniform_instance, 0.25, 0.0)


def _assert_matches_two_step_rounding(instance: Instance, eps: float, guess: float) -> None:
    """``scale_and_round`` equals scaling by ``1 / guess`` and then rounding.

    Ids, bags and names match, and every size matches bit for bit.
    """
    rounded = scale_and_round(instance, eps, guess)
    two_step = round_instance(
        instance.scaled(1 / guess, name=f"{instance.name}#scaled"), eps
    )
    assert rounded.name == two_step.name == f"{instance.name}#scaled#rounded"
    assert rounded.num_machines == two_step.num_machines
    assert [(job.id, job.bag, job.size.hex(), job.meta) for job in rounded.jobs] == [
        (job.id, job.bag, job.size.hex(), job.meta) for job in two_step.jobs
    ]


class TestOnePassRounding:
    @pytest.mark.parametrize(
        "family", ["uniform", "clustered", "two-size", "figure1", "replicas", "planted", "bag-heavy"]
    )
    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
    def test_library_instances(self, family, eps):
        instance = generate(family, seed=3).instance
        lower = best_lower_bound(instance).best
        for guess in (lower, lower * 1.37, instance.total_work):
            _assert_matches_two_step_rounding(instance, eps, guess)

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(
            st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False), max_size=30
        ),
        eps=st.sampled_from([0.5, 1 / 3, 0.25, 0.2, 0.1]),
        guess=st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False),
    )
    def test_drawn_instances(self, sizes, eps, guess):
        instance = Instance.from_sizes(sizes, list(range(len(sizes))), 2, name="drawn")
        _assert_matches_two_step_rounding(instance, eps, guess)


def _assert_same_job_table(actual: Instance, expected: Instance) -> None:
    """Equal on every read of the job table, arrays byte for byte."""
    assert actual.name == expected.name
    assert actual.num_machines == expected.num_machines
    assert actual.jobs == expected.jobs
    for field in ("sizes", "job_bags"):
        mine, theirs = getattr(actual, field), getattr(expected, field)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), field
    assert list(actual.job_ids) == list(expected.job_ids)
    assert actual.bags() == expected.bags()
    ids = list(expected.job_ids)
    assert actual.rows_of(ids).tolist() == expected.rows_of(ids).tolist()
    for job_id, row in zip(ids, expected.rows_of(ids).tolist()):
        assert actual.job(job_id) is actual.jobs[row]
        assert actual.job(job_id) == expected.job(job_id)


class TestRoundedJobTable:
    """The rounded instance shares its source's ids, rows and bag array, and
    reads exactly like one built by the constructor from its jobs."""

    @settings(max_examples=200, deadline=None)
    @given(
        drawn_instances(),
        st.sampled_from(_EPSILONS),
        st.floats(1e-2, 1e2, allow_nan=False, allow_infinity=False),
    )
    def test_equals_the_constructor(self, instance, eps, guess):
        for rounded in (scale_and_round(instance, eps, guess), round_instance(instance, eps)):
            expected = Instance(rounded.jobs, rounded.num_machines, name=rounded.name, validate=False)
            _assert_same_job_table(rounded, expected)

    def test_repeated_ids(self):
        # Id 1 sits in rows 0 and 2; job(1) is the later row's job, as the
        # constructor's id -> row dict keeps the last row.
        source = Instance(
            [Job(1, 0.3, 0), Job(2, 0.2, 1), Job(1, 0.7, 1)], 2, name="repeated", validate=False
        )
        rounded = round_instance(source, 0.5)
        expected = Instance(rounded.jobs, 2, name=rounded.name, validate=False)
        _assert_same_job_table(rounded, expected)
        assert rounded.job(1).size == round_up_to_power(0.7, 0.5)
        assert rounded.bags() == {0: (rounded.jobs[0],), 1: rounded.jobs[1:]}


# ----------------------------------------------------------------------
# Oracle: the vectorised rounding equals round_up_to_power bit for bit.
# ----------------------------------------------------------------------
def _powers_and_neighbours(eps: float) -> list[float]:
    """Every ``(1 + eps) ** k`` for ``k`` in ``[-30, 5)``, its two float
    neighbours, where numpy's ``log`` and ``math.log`` may disagree, and its
    ``x (1 +- 1e-10)`` neighbours, which the scalar function steps up from."""
    values = []
    for exponent in range(-30, 5):
        power = (1 + eps) ** exponent
        values += [
            power * (1 - 1e-10),
            math.nextafter(power, 0.0),
            power,
            math.nextafter(power, math.inf),
            power * (1 + 1e-10),
        ]
    return values


def _assert_rounds_like_the_scalar(sizes: list[float], eps: float) -> None:
    rounded = round_up_sizes(np.array(sizes, dtype=float), eps)
    assert [value.hex() for value in rounded.tolist()] == [
        round_up_to_power(size, eps).hex() for size in sizes
    ]


@st.composite
def _sizes_and_eps(draw) -> tuple[list[float], float]:
    """Sizes in [1e-9, 1e3], zeros, and powers of ``1 + eps`` with their
    float neighbours, at one of the five test epsilons."""
    eps = draw(st.sampled_from(_EPSILONS))
    power = st.integers(-30, 4).map(lambda exponent: (1 + eps) ** exponent)
    size = st.one_of(
        st.floats(1e-9, 1e3, allow_nan=False, allow_infinity=False),
        st.just(0.0),
        power,
        power.map(lambda value: math.nextafter(value, 0.0)),
        power.map(lambda value: math.nextafter(value, math.inf)),
    )
    return draw(st.lists(size, max_size=60)), eps


class TestVectorisedRounding:
    @pytest.mark.parametrize("eps", _EPSILONS)
    def test_every_power_and_its_neighbours(self, eps):
        _assert_rounds_like_the_scalar([0.0, *_powers_and_neighbours(eps)], eps)

    # Sizes at which numpy's log and libm's log put ``exponent - 1e-9`` on
    # different sides of an integer, found by a search on an x86-64 host with
    # numpy 2.4.  They are too small for the scalar's upward steps to hide
    # the difference, so only the math.log recomputation rounds them right.
    @pytest.mark.parametrize(
        "size", ["0x1.5d16a48427257p-100", "0x1.5a4de9cb8f56ap-63"]
    )
    def test_sizes_where_the_two_logs_round_apart(self, size):
        _assert_rounds_like_the_scalar([float.fromhex(size)], 0.1)

    @settings(max_examples=300, deadline=None)
    @given(_sizes_and_eps())
    def test_drawn_sizes(self, case):
        sizes, eps = case
        _assert_rounds_like_the_scalar(sizes, eps)

    @pytest.mark.parametrize("size", [math.inf, math.nan])
    def test_a_non_finite_size_raises_like_the_scalar(self, size):
        with pytest.raises((OverflowError, ValueError)) as scalar:
            round_up_to_power(size, 0.5)
        with pytest.raises(scalar.type) as vector:
            round_up_sizes(np.array([1.0, size]), 0.5)
        assert str(vector.value) == str(scalar.value)
