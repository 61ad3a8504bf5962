"""Unit tests for greedy list scheduling and first-fit."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    first_fit_schedule,
    greedy_assign,
    greedy_schedule,
    lpt_order,
    lpt_schedule,
    upper_bound_makespan,
)
from repro.bounds import combined_lower_bound
from repro.core import (
    Instance,
    InvalidInstanceError,
    InvalidScheduleError,
    Job,
    Occupancy,
    Schedule,
)
from repro.generators import uniform_random_instance

from helpers import assert_feasible, drawn_instances, reference_greedy_assign


class TestGreedySchedule:
    def test_feasible_on_fixtures(self, tiny_instance, uniform_instance, replica_instance):
        for instance in (tiny_instance, uniform_instance, replica_instance):
            result = greedy_schedule(instance)
            assert_feasible(result.schedule)
            assert result.makespan >= combined_lower_bound(instance) - 1e-9

    def test_respects_bags(self, full_bag_instance):
        result = greedy_schedule(full_bag_instance)
        assert_feasible(result.schedule)
        # Bag 0 has exactly m jobs: each machine holds exactly one of them.
        machines = {result.schedule.machine_of(job.id) for job in full_bag_instance.bag(0)}
        assert len(machines) == full_bag_instance.num_machines

    def test_custom_order(self, tiny_instance):
        order = sorted(tiny_instance.jobs, key=lambda job: job.size)
        result = greedy_schedule(tiny_instance, order=order)
        assert_feasible(result.schedule)
        assert result.params["order"] == "custom"

    def test_extends_partial_schedule(self, tiny_instance):
        partial = Schedule(tiny_instance).assign(0, 0)
        completed = greedy_assign(tiny_instance, schedule=partial)
        assert completed.is_complete
        assert completed.machine_of(0) == 0
        assert_feasible(completed)

    def test_greedy_is_2_approx_on_random_instances(self):
        # The bag-aware greedy rule is a 2-approximation for cluster
        # conflict graphs; check against the lower bound on several seeds.
        for seed in range(5):
            instance = uniform_random_instance(
                num_jobs=30, num_machines=5, num_bags=10, seed=seed
            ).instance
            result = greedy_schedule(instance)
            assert result.makespan <= 2.0 * combined_lower_bound(instance) + 1e-9


class TestFirstFit:
    def test_feasible(self, uniform_instance):
        result = first_fit_schedule(uniform_instance)
        assert_feasible(result.schedule)

    def test_capacity_mode(self, uniform_instance):
        bound = combined_lower_bound(uniform_instance)
        result = first_fit_schedule(uniform_instance, capacity=bound * 1.5)
        assert_feasible(result.schedule)

    def test_first_fit_is_naive_on_figure1(self, figure1_instance):
        # First-fit packs the large jobs together and pays for it; this is
        # the Figure-1 phenomenon the EPTAS avoids.
        naive = first_fit_schedule(figure1_instance)
        assert naive.makespan > 1.0 + 1e-9


def _reference_first_fit(instance: Instance, capacity: float | None) -> Schedule:
    """The first-fit loop with its own load list, bag sets and fallback scan,
    which ``first_fit_schedule`` replaced with an ``Occupancy``."""
    schedule = Schedule(instance)
    machine_loads = [0.0] * instance.num_machines
    machine_bags: list[set[int]] = [set() for _ in range(instance.num_machines)]
    for job in instance.jobs:
        placed = False
        for machine in range(instance.num_machines):
            if job.bag in machine_bags[machine]:
                continue
            if capacity is not None and machine_loads[machine] + job.size > capacity:
                continue
            schedule.assign(job.id, machine)
            machine_loads[machine] += job.size
            machine_bags[machine].add(job.bag)
            placed = True
            break
        if not placed:
            candidates = [
                (machine_loads[machine], machine)
                for machine in range(instance.num_machines)
                if job.bag not in machine_bags[machine]
            ]
            if not candidates:
                raise InvalidInstanceError(f"no conflict-free machine for job {job.id}")
            _, machine = min(candidates)
            schedule.assign(job.id, machine)
            machine_loads[machine] += job.size
            machine_bags[machine].add(job.bag)
    return schedule


class TestFirstFitMatchesTheLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        drawn_instances(),
        st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 20.0)),
    )
    def test_both_capacity_modes(self, instance, capacity):
        result = first_fit_schedule(instance, capacity=capacity)
        expected = _reference_first_fit(instance, capacity)
        assert list(result.schedule.assignment.items()) == list(expected.assignment.items())
        assert result.makespan == expected.makespan()

    def test_jobs_that_fit_nowhere_take_the_least_loaded_free_machine(self):
        # Capacity 1.2: jobs 0-2 take one machine each.  Job 3 fits nowhere
        # and falls back to machine 1, the lower index of the two machines
        # without bag 0 (1 and 2, tied at 1.0).  Job 4 fits nowhere either
        # and goes to machine 0, which ties with machine 2 at 1.0.
        instance = Instance.from_sizes(
            [1.0, 1.0, 1.0, 1.0, 0.5], bags=[0, 1, 2, 0, 3], num_machines=3
        )
        result = first_fit_schedule(instance, capacity=1.2)
        assert result.schedule.assignment == {0: 0, 1: 1, 2: 2, 3: 1, 4: 0}


@st.composite
def _greedy_cases(draw):
    """A drawn instance (tied sizes, bags of up to m jobs), an order of its
    jobs that may list one job twice, and maybe a conflict-free partial
    schedule to extend, as Das–Wiese passes one."""
    instance = draw(drawn_instances())
    jobs = list(instance.jobs)
    order = draw(st.permutations(jobs))
    if jobs and draw(st.booleans()):
        order.insert(draw(st.integers(0, len(order))), draw(st.sampled_from(jobs)))
    partial = None
    if draw(st.booleans()):
        partial = Schedule(instance)
        held: list[set[int]] = [set() for _ in range(instance.num_machines)]
        placed = draw(st.lists(st.sampled_from(jobs), unique_by=lambda job: job.id)) if jobs else []
        for job in placed:
            machine = draw(st.integers(0, instance.num_machines - 1))
            if job.bag not in held[machine]:
                partial.assign(job.id, machine)
                held[machine].add(job.bag)
    return instance, order, partial


def _greedy_outcome(function, instance, order, partial):
    """The assignment (in order) and occupancy loads, or the error raised."""
    try:
        schedule = function(instance, order, schedule=partial.copy() if partial else None)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)
    return list(schedule.assignment.items()), Occupancy(schedule).loads


class TestGreedyMatchesTheStaleEntryHeap:
    @settings(max_examples=300, deadline=None)
    @given(_greedy_cases())
    def test_same_assignment_order_and_loads(self, case):
        instance, order, partial = case
        expected = _greedy_outcome(reference_greedy_assign, instance, order, partial)
        assert _greedy_outcome(greedy_assign, instance, order, partial) == expected
        assert isinstance(expected[0], list)

    @settings(max_examples=100, deadline=None)
    @given(_greedy_cases(), st.data())
    def test_an_unknown_job_raises_the_same_error(self, case, data):
        instance, order, partial = case
        # A fresh bag, so a machine is free for it and the id is what fails.
        stranger = Job(
            id=max(instance.job_ids, default=0) + 1,
            size=1.0,
            bag=max(instance.bag_indices, default=0) + 1,
        )
        order.insert(data.draw(st.integers(0, len(order))), stranger)
        expected = _greedy_outcome(reference_greedy_assign, instance, order, partial)
        assert _greedy_outcome(greedy_assign, instance, order, partial) == expected
        assert expected[0] is InvalidScheduleError

    @pytest.mark.parametrize("machines", [1, 2, 3])
    def test_an_overfull_bag_raises_the_same_error(self, machines):
        # Bag 1 has one job more than there are machines.
        jobs = [Job(id=job_id, size=1.0, bag=1) for job_id in range(machines + 1)]
        jobs.append(Job(id=99, size=5.0, bag=0))
        instance = Instance(jobs, machines, validate=False)
        order = lpt_order(instance)
        expected = _greedy_outcome(reference_greedy_assign, instance, order, None)
        assert _greedy_outcome(greedy_assign, instance, order, None) == expected
        assert expected == (
            InvalidInstanceError,
            f"no conflict-free machine for job {machines} of bag 1; "
            "bag has more jobs than machines",
        )


class TestUpperBound:
    def test_upper_bound_brackets_greedy(self, uniform_instance):
        upper = upper_bound_makespan(uniform_instance)
        assert upper >= combined_lower_bound(uniform_instance) - 1e-9
        result = greedy_schedule(uniform_instance)
        # The LPT-ordered bound is never worse than twice the lower bound.
        assert upper <= 2.0 * combined_lower_bound(uniform_instance) + 1e-9
        assert result.makespan > 0

    def test_ties_break_by_id_as_in_lpt(self):
        # Jobs 65 and 13 of bag 0 tie at size 2: taking 13 first, as LPT's
        # id order does, reaches a makespan of 6; the listed order reaches 8.
        instance = Instance(
            [
                Job(65, 2.0, 0), Job(13, 2.0, 0), Job(99, 3.0, 3), Job(20, 1.0, 1),
                Job(66, 1.0, 1), Job(50, 3.0, 1), Job(47, 2.0, 2), Job(62, 3.0, 2),
            ],
            3,
        )
        assert upper_bound_makespan(instance) == 6.0
        assert lpt_schedule(instance).makespan == 6.0

    @settings(max_examples=200, deadline=None)
    @given(drawn_instances(), st.randoms(use_true_random=False))
    def test_equals_lpt_whatever_the_listed_order(self, instance, random):
        shuffled = list(instance.jobs)
        random.shuffle(shuffled)
        relisted = Instance(shuffled, instance.num_machines, name="relisted")
        expected = lpt_schedule(instance).makespan
        assert upper_bound_makespan(instance) == expected
        assert upper_bound_makespan(relisted) == expected


@st.composite
def _sparse_instances(draw) -> Instance:
    """Up to 40 jobs with sparse ids up to 10**9, in a random order, sizes
    from a short list (so sizes tie) or any float in [0, 10]."""
    size = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    )
    job_ids = draw(st.lists(st.integers(0, 10**9), max_size=40, unique=True))
    jobs = [Job(id=job_id, size=draw(size), bag=draw(st.integers(0, 5))) for job_id in job_ids]
    return Instance(jobs, 3, name="sparse", validate=False)


class TestLptOrder:
    @settings(max_examples=200, deadline=None)
    @given(_sparse_instances())
    def test_equals_sorting_by_size_then_id(self, instance):
        expected = sorted(instance.jobs, key=lambda job: (-job.size, job.id))
        order = lpt_order(instance)
        assert [job.id for job in order] == [job.id for job in expected]
        assert all(job is instance.job(job.id) for job in order)
