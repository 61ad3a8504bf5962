"""Unit tests for :mod:`repro.core.schedule`."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Instance, InvalidScheduleError, Job, Schedule
from repro.core.schedule import Conflict, Occupancy, ValidationReport, _packed_keys


class TestScheduleBasics:
    def test_empty_schedule(self, tiny_instance):
        schedule = Schedule(tiny_instance)
        assert schedule.makespan() == 0.0
        assert schedule.num_assigned == 0
        assert not schedule.is_complete

    def test_assignment_and_loads(self, tiny_instance):
        schedule = Schedule(tiny_instance).assign_many([(0, 0), (2, 0), (1, 1), (3, 1)])
        assert schedule.is_complete
        assert schedule.loads().tolist() == [5.0, 3.0]
        assert schedule.makespan() == 5.0
        assert schedule.load(1) == 3.0
        assert schedule.machine_of(0) == 0
        assert schedule.machine_of(99) is None

    def test_machine_jobs_and_bags(self, tiny_instance):
        schedule = Schedule(tiny_instance).assign_many([(0, 0), (2, 0)])
        machine_jobs = schedule.machine_jobs()
        assert [[job.id for job in jobs] for jobs in machine_jobs] == [[0, 2], []]
        assert Occupancy(schedule).bags == [{0: 1, 1: 1}, {}]

    def test_assign_unknown_job_rejected(self, tiny_instance):
        with pytest.raises(InvalidScheduleError):
            Schedule(tiny_instance).assign(99, 0)

    def test_assign_invalid_machine_rejected(self, tiny_instance):
        with pytest.raises(InvalidScheduleError):
            Schedule(tiny_instance).assign(0, 5)

    def test_copy_is_independent(self, tiny_instance):
        schedule = Schedule(tiny_instance).assign(0, 0)
        copy = schedule.copy().assign(1, 1)
        assert 1 not in schedule
        assert 1 in copy


class TestConflicts:
    def test_conflict_detection(self, tiny_instance):
        schedule = Schedule(tiny_instance).assign_many([(0, 0), (1, 0)])
        conflicts = schedule.conflicts()
        assert len(conflicts) == 1
        assert conflicts[0].bag == 0
        assert conflicts[0].machine == 0
        assert not schedule.is_conflict_free()
        assert schedule.num_conflicts() == 1

    def test_conflict_free(self, tiny_instance):
        schedule = Schedule(tiny_instance).assign_many([(0, 0), (1, 1), (2, 0), (3, 1)])
        assert schedule.is_conflict_free()
        assert schedule.conflicts() == []

    def test_triple_conflict_counts_pairs(self):
        instance = Instance.from_sizes([1, 1, 1], bags=[0, 0, 0], num_machines=3)
        schedule = Schedule(instance).assign_many([(0, 0), (1, 0), (2, 0)])
        assert schedule.num_conflicts() == 2  # anchored at the smallest id

    def test_swap(self, tiny_instance):
        schedule = Schedule(tiny_instance).assign_many([(0, 0), (1, 0), (2, 1), (3, 1)])
        assert not schedule.is_conflict_free()
        schedule.swap(1, 2)
        assert schedule.is_conflict_free()
        with pytest.raises(InvalidScheduleError):
            schedule.swap(1, 99)


class TestValidation:
    def test_validate_complete_feasible(self, tiny_instance):
        schedule = Schedule(tiny_instance).assign_many([(0, 0), (1, 1), (2, 0), (3, 1)])
        schedule.validate()  # must not raise

    def test_validate_missing_job(self, tiny_instance):
        schedule = Schedule(tiny_instance).assign(0, 0)
        with pytest.raises(InvalidScheduleError):
            schedule.validate()
        schedule.validate(require_complete=False)

    def test_validate_conflict(self, tiny_instance):
        schedule = Schedule(tiny_instance).assign_many([(0, 0), (1, 0), (2, 1), (3, 1)])
        with pytest.raises(InvalidScheduleError):
            schedule.validate()

    def test_validation_report_summary(self, tiny_instance):
        good = Schedule(tiny_instance).assign_many([(0, 0), (1, 1), (2, 0), (3, 1)])
        assert good.validation_report().summary() == "feasible"
        bad = Schedule(tiny_instance).assign_many([(0, 0), (1, 0)])
        summary = bad.validation_report().summary()
        assert "infeasible" in summary and "conflict" in summary


class TestScheduleTransfer:
    def test_serialization_roundtrip(self, tiny_instance):
        schedule = Schedule(tiny_instance).assign_many([(0, 0), (1, 1), (2, 0), (3, 1)])
        data = schedule.to_dict()
        restored = Schedule.from_dict(tiny_instance, data)
        assert restored.assignment == schedule.assignment
        assert data["makespan"] == pytest.approx(schedule.makespan())

    def test_save(self, tiny_instance, tmp_path):
        schedule = Schedule(tiny_instance).assign_many([(0, 0), (1, 1), (2, 0), (3, 1)])
        path = schedule.save(tmp_path / "sched.json")
        assert path.exists()


class TestLoadsRange:
    def test_negative_machine_raises(self):
        instance = Instance.from_sizes([3, 2, 1], [0, 1, 2], 2)
        schedule = Schedule(instance, {0: -1, 1: 0, 2: 1})
        with pytest.raises(InvalidScheduleError, match=r"job 0 is on machine -1"):
            schedule.makespan()
        assert schedule.validation_report().invalid_machines == (0,)
        with pytest.raises(InvalidScheduleError, match=r"jobs on invalid machines: \[0\]"):
            schedule.validate()

    def test_machine_past_the_last_raises(self):
        instance = Instance.from_sizes([3, 2, 1], [0, 1, 2], 2)
        schedule = Schedule(instance, {0: 0, 1: 1, 2: 2})
        with pytest.raises(InvalidScheduleError, match=r"job 2 is on machine 2"):
            schedule.loads()
        assert schedule.validation_report().invalid_machines == (2,)


def test_validation_report_lists_unknown_jobs(tiny_instance):
    schedule = Schedule(tiny_instance, {0: 0, 1: 1, 2: 0, 3: 1, 99: 0})
    report = schedule.validation_report()
    assert report.unknown_jobs == (99,)
    assert report.conflicts == ()
    with pytest.raises(InvalidScheduleError, match=r"unknown jobs: \[99\]"):
        schedule.validate()


# ----------------------------------------------------------------------
# Oracles: the job-by-job loops the array-based checks replaced.
# ----------------------------------------------------------------------
def _reference_conflicts(schedule: Schedule) -> list[Conflict]:
    """The dict-of-lists conflict loop.

    One change: an id the instance does not know is skipped.  The loop used
    to raise ``KeyError`` on it, so a report never listed unknown jobs.
    """
    instance = schedule.instance
    per_machine_bag: dict[tuple[int, int], list[int]] = {}
    for job_id, machine in schedule.assignment.items():
        if job_id not in instance:
            continue
        bag = instance.job(job_id).bag
        per_machine_bag.setdefault((machine, bag), []).append(job_id)
    found: list[Conflict] = []
    for (machine, bag), job_ids in per_machine_bag.items():
        if len(job_ids) > 1:
            job_ids = sorted(job_ids)
            anchor = job_ids[0]
            for other in job_ids[1:]:
                found.append(Conflict(machine=machine, bag=bag, job_a=anchor, job_b=other))
    found.sort(key=lambda c: (c.machine, c.bag, c.job_a, c.job_b))
    return found


def _reference_report(schedule: Schedule) -> ValidationReport:
    instance = schedule.instance
    assignment = schedule.assignment
    return ValidationReport(
        missing_jobs=tuple(
            sorted(job.id for job in instance.jobs if job.id not in assignment)
        ),
        unknown_jobs=tuple(sorted(job_id for job_id in assignment if job_id not in instance)),
        invalid_machines=tuple(
            sorted(
                job_id
                for job_id, machine in assignment.items()
                if not 0 <= machine < instance.num_machines
            )
        ),
        conflicts=tuple(_reference_conflicts(schedule)),
    )


def _reference_validate_error(schedule: Schedule, require_complete: bool) -> str | None:
    """The message ``validate`` raises with, or ``None`` when it passes."""
    report = _reference_report(schedule)
    problems: list[str] = []
    if require_complete and report.missing_jobs:
        problems.append(f"unassigned jobs: {list(report.missing_jobs)[:10]}")
    if report.unknown_jobs:
        problems.append(f"unknown jobs: {list(report.unknown_jobs)[:10]}")
    if report.invalid_machines:
        problems.append(f"jobs on invalid machines: {list(report.invalid_machines)[:10]}")
    if report.conflicts:
        problems.append(
            "bag conflicts: "
            + ", ".join(
                f"(machine {c.machine}, bag {c.bag}, jobs {c.job_a}/{c.job_b})"
                for c in report.conflicts[:5]
            )
            + (" ..." if len(report.conflicts) > 5 else "")
        )
    if not problems:
        return None
    return f"schedule for {schedule.instance.name!r} is infeasible: " + "; ".join(problems)


def _reference_loads(schedule: Schedule) -> np.ndarray:
    instance = schedule.instance
    loads = np.zeros(instance.num_machines, dtype=float)
    for job_id, machine in schedule.assignment.items():
        loads[machine] += instance.job(job_id).size
    return loads


def _outcome(function, *args):
    try:
        return "ok", function(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc).__name__, str(exc)


# Bag ids that make a packed (machine, bag) key collide: with ``2**32`` per
# machine, (1, 0) and (0, 2**32) share a key.
_EDGE_BAGS = (0, 1, 2, 2**31, 2**32, 2**32 + 1, 2**40)


@st.composite
def _schedules(draw) -> Schedule:
    """A schedule for checking the array-based checks against the oracles.

    Sparse job ids up to 10**9, bag ids up to 2**40, 1-8 machines and 0-40
    jobs.  The assignment is partial or complete, may name up to 3 unknown
    ids, puts jobs on machines in [-2, m + 2) and forces 0-3 pairs of jobs of
    one bag onto one machine.  Entries come in a random order.
    """
    num_machines = draw(st.integers(min_value=1, max_value=8))
    job_ids = draw(st.lists(st.integers(0, 10**9), max_size=40, unique=True))
    pool = draw(
        st.lists(
            st.one_of(st.sampled_from(_EDGE_BAGS), st.integers(0, 2**40)),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    jobs = [
        Job(
            id=job_id,
            size=draw(st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)),
            bag=draw(st.sampled_from(pool)),
        )
        for job_id in job_ids
    ]
    instance = Instance(jobs, num_machines, name="drawn", validate=False)
    machine = st.integers(min_value=-2, max_value=num_machines + 1)
    complete = draw(st.booleans())
    assignment = {
        job.id: draw(machine) for job in jobs if complete or draw(st.booleans())
    }
    known = set(job_ids)
    for unknown in draw(st.lists(st.integers(0, 10**9 + 10), max_size=3)):
        if unknown not in known:
            assignment[unknown] = draw(machine)
    by_bag: dict[int, list[int]] = {}
    for job in jobs:
        by_bag.setdefault(job.bag, []).append(job.id)
    shared = [ids for ids in by_bag.values() if len(ids) > 1]
    for _ in range(draw(st.integers(0, 3)) if shared else 0):
        first, second = draw(st.permutations(draw(st.sampled_from(shared))))[:2]
        assignment[first] = assignment[second] = draw(machine)
    order = draw(st.permutations(list(assignment.items())))
    return Schedule(instance, dict(order))


_COLLIDING = Schedule(
    Instance([Job(id=5, size=1.0, bag=2**32), Job(id=9, size=2.0, bag=0)], 2),
    {5: 0, 9: 1},
)


class TestChecksMatchOracles:
    @settings(max_examples=300, deadline=None)
    @given(_schedules())
    @example(_COLLIDING)
    def test_feasibility_checks(self, schedule):
        expected = _reference_conflicts(schedule)
        assert schedule.conflicts() == expected
        assert schedule.num_conflicts() == len(expected)
        assert schedule.is_conflict_free() == (not expected)
        assert schedule.validation_report() == _reference_report(schedule)
        for require_complete in (True, False):
            try:
                schedule.validate(require_complete=require_complete)
                message = None
            except InvalidScheduleError as exc:
                message = str(exc)
            assert message == _reference_validate_error(schedule, require_complete)

    @settings(max_examples=300, deadline=None)
    @given(_schedules())
    def test_loads(self, schedule):
        num_machines = schedule.instance.num_machines
        outside = [
            job_id
            for job_id, machine in schedule.assignment.items()
            if not 0 <= machine < num_machines
        ]
        if outside:
            with pytest.raises(InvalidScheduleError, match="outside"):
                schedule.loads()
            return
        kind, loads = _outcome(schedule.loads)
        expected_kind, expected = _outcome(_reference_loads, schedule)
        assert kind == expected_kind
        if kind == "ok":
            assert loads.shape == (num_machines,)
            assert np.array_equal(loads, expected)
        else:
            assert loads == expected


@st.composite
def _unpackable_schedules(draw) -> Schedule:
    """A schedule whose (machine, bag) pairs cannot pack into one int64.

    Bag ids span ``[0, 2**63 - 1]``, so any machine range times the bag span
    exceeds int64.  Up to 30 jobs with sparse ids on 1-4 machines, machines
    in [-1, m], and 0-3 forced pairs of jobs of one bag on one machine.
    """
    num_machines = draw(st.integers(min_value=1, max_value=4))
    bag = st.one_of(
        st.sampled_from([0, 1, 2**62, 2**63 - 2, 2**63 - 1]),
        st.integers(0, 2**63 - 1),
    )
    bags = [0, 2**63 - 1, *draw(st.lists(bag, max_size=28))]
    job_ids = draw(st.lists(st.integers(0, 10**9), min_size=len(bags), max_size=len(bags), unique=True))
    jobs = [Job(id=job_id, size=1.0, bag=bag) for job_id, bag in zip(job_ids, draw(st.permutations(bags)))]
    instance = Instance(jobs, num_machines, name="wide", validate=False)
    machine = st.integers(min_value=-1, max_value=num_machines)
    assignment = {job.id: draw(machine) for job in jobs}
    for _ in range(draw(st.integers(0, 3))):
        first, second = draw(st.permutations(jobs))[:2]
        assignment[first.id] = assignment[second.id] = draw(machine)
    return Schedule(instance, assignment)


class TestUnpackablePairs:
    @settings(max_examples=200, deadline=None)
    @given(_unpackable_schedules())
    def test_the_three_key_fallback_matches_the_oracles(self, schedule):
        instance = schedule.instance
        assignment = schedule.assignment
        machines = np.array(list(assignment.values()), dtype=np.int64)
        bags = np.array([instance.job(job_id).bag for job_id in assignment], dtype=np.int64)
        assert _packed_keys(machines, bags) is None
        assert schedule.conflicts() == _reference_conflicts(schedule)
        assert schedule.is_conflict_free() == (not _reference_conflicts(schedule))
        assert schedule.validation_report() == _reference_report(schedule)

    def test_packed_keys_separate_machines_outside_the_range(self):
        # Machines -2 .. m + 1 and bags up to 2**40 pack without collisions.
        machines = np.array([-2, -2, -1, 0, 0, 1, 5], dtype=np.int64)
        bags = np.array([0, 2**40, 0, 2**32, 0, 0, 2**40], dtype=np.int64)
        keys = _packed_keys(machines, bags)
        assert keys is not None and len(set(keys.tolist())) == len(keys)


# ----------------------------------------------------------------------
# Occupancy: loads and bag counts kept beside the schedule.
# ----------------------------------------------------------------------
_BAGS = (0, 1, 2, 3)


@st.composite
def _occupancy_runs(draw):
    """An instance, a partial starting assignment and a run of operations.

    Up to 12 jobs on 1-5 machines with bags from ``_BAGS`` (a bag may hold
    more jobs than there are machines, so conflicts occur), sizes from a
    short list (so loads tie) or any float in [0, 1].  Each operation is
    ``("assign", job, _, machine)`` or ``("swap", job, other, _)``; machines
    run from -1 to m, so some assignments are rejected.
    """
    num_machines = draw(st.integers(min_value=1, max_value=5))
    size = st.one_of(
        st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    )
    jobs = [
        Job(id=job_id, size=draw(size), bag=draw(st.sampled_from(_BAGS)))
        for job_id in draw(st.permutations(range(draw(st.integers(0, 12)))))
    ]
    instance = Instance(jobs, num_machines, name="drawn", validate=False)
    machine = st.integers(min_value=0, max_value=num_machines - 1)
    start = {job.id: draw(machine) for job in jobs if draw(st.booleans())}
    index = st.integers(min_value=0, max_value=max(len(jobs) - 1, 0))
    operations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["assign", "swap"]),
                index,
                index,
                st.integers(min_value=-1, max_value=num_machines),
            ),
            max_size=30,
        )
    )
    return instance, start, operations


def _assert_matches_recount(occupancy: Occupancy) -> None:
    schedule = occupancy.schedule
    recount = [
        dict(Counter(job.bag for job in jobs)) for jobs in schedule.machine_jobs()
    ]
    assert occupancy.bags == recount
    assert np.allclose(occupancy.loads, schedule.loads(), rtol=0.0, atol=1e-12)
    for bag in (*_BAGS, 99):
        free = [
            (occupancy.loads[machine], machine)
            for machine in range(schedule.instance.num_machines)
            if bag not in recount[machine]
        ]
        expected = min(free)[1] if free else None
        assert occupancy.least_loaded(bag) == expected


class TestOccupancy:
    @settings(max_examples=200, deadline=None)
    @given(_occupancy_runs())
    def test_matches_a_recount_after_every_change(self, run):
        instance, start, operations = run
        occupancy = Occupancy(Schedule(instance, start))
        schedule = occupancy.schedule
        assert occupancy.loads == schedule.loads().tolist()
        _assert_matches_recount(occupancy)
        jobs = instance.jobs
        for kind, first, second, machine in operations:
            if not jobs:
                break
            job, other = jobs[first], jobs[second]
            if kind == "assign" and 0 <= machine < instance.num_machines:
                occupancy.assign(job, machine)
                assert schedule.machine_of(job.id) == machine
            elif kind == "assign":
                with pytest.raises(InvalidScheduleError):
                    occupancy.assign(job, machine)
            elif job.id in schedule and other.id in schedule:
                machines = schedule.machine_of(job.id), schedule.machine_of(other.id)
                occupancy.swap(job, other)
                assert (schedule.machine_of(other.id), schedule.machine_of(job.id)) == machines
            else:
                with pytest.raises(InvalidScheduleError):
                    occupancy.swap(job, other)
            _assert_matches_recount(occupancy)

    def test_least_loaded_takes_the_lowest_index_on_ties(self):
        instance = Instance.from_sizes([2.0, 1.0, 1.0, 1.0], bags=[0, 1, 2, 3], num_machines=4)
        occupancy = Occupancy(Schedule(instance, {0: 0, 1: 3, 2: 1}))
        assert occupancy.loads == [2.0, 1.0, 0.0, 1.0]
        assert occupancy.least_loaded(3) == 2
        occupancy.assign(instance.job(3), 2)
        assert occupancy.least_loaded(0) == 1  # machines 1, 2 and 3 tie at 1.0
        assert occupancy.least_loaded(3) == 1  # machine 2 now holds bag 3

    def test_least_loaded_is_none_when_every_machine_holds_the_bag(self):
        instance = Instance.from_sizes([1.0, 1.0, 5.0], bags=[0, 0, 1], num_machines=2)
        occupancy = Occupancy(Schedule(instance, {0: 0, 1: 1}))
        assert occupancy.least_loaded(0) is None
        assert occupancy.least_loaded(1) == 0
        occupancy.assign(instance.job(0), 1)  # a move leaves machine 0 free of bag 0
        assert occupancy.bags == [{}, {0: 2}]
        assert occupancy.least_loaded(0) == 0

    def test_swap_moves_loads_by_the_size_difference(self):
        instance = Instance.from_sizes([3.0, 1.0, 2.0], bags=[0, 1, 0], num_machines=2)
        occupancy = Occupancy(Schedule(instance, {0: 0, 1: 1, 2: 1}))
        occupancy.swap(instance.job(0), instance.job(1))
        assert occupancy.schedule.assignment == {0: 1, 1: 0, 2: 1}
        assert occupancy.loads == [1.0, 5.0]
        assert occupancy.bags == [{1: 1}, {0: 2}]
        occupancy.swap(instance.job(0), instance.job(2))  # one machine: nothing moves
        assert occupancy.loads == [1.0, 5.0]
        assert occupancy.bags == [{1: 1}, {0: 2}]

    @settings(max_examples=300, deadline=None)
    @given(_occupancy_runs(), st.data())
    def test_place_bag_places_like_assign_or_changes_nothing(self, run, data):
        # A drawn bag's jobs (possibly placed already, plus maybe an unknown
        # id) on drawn machines from -1 to m (possibly repeated, possibly
        # holding the bag): place_bag places only when assign would place
        # each job fresh on a machine free of the bag, and then exactly as
        # one assign per job does.
        instance, start, _ = run
        bag = data.draw(st.sampled_from(_BAGS))
        members = [job for job in instance.jobs if job.bag == bag]
        jobs = data.draw(st.permutations(members)) if members else []
        job_ids = [job.id for job in jobs]
        sizes = [job.size for job in jobs]
        if data.draw(st.booleans()):
            job_ids.append(10**6)  # not the instance's
            sizes.append(1.0)
        machines = data.draw(
            st.lists(
                st.integers(-1, instance.num_machines),
                min_size=len(job_ids),
                max_size=len(job_ids),
            )
        )
        bulk = Occupancy(Schedule(instance, start))
        holders = {machine for machine, counts in enumerate(bulk.bags) if bag in counts}
        fresh = (
            len(set(machines)) == len(machines)
            and all(0 <= machine < instance.num_machines for machine in machines)
            and not set(job_ids) & start.keys()
            and 10**6 not in job_ids
            and not holders & set(machines)
        )
        before = Occupancy(Schedule(instance, start))
        assert bulk.place_bag(bag, job_ids, sizes, machines) is fresh
        expected = Occupancy(Schedule(instance, start))
        if fresh:
            for job, machine in zip(jobs, machines):
                expected.assign(job, machine)
        else:
            expected = before
        assert list(bulk.assignment.items()) == list(expected.assignment.items())
        assert repr(bulk.loads) == repr(expected.loads)
        assert bulk.bags == expected.bags
        _assert_matches_recount(bulk)

    def test_place_bag_in_order(self):
        instance = Instance.from_sizes([0.5, 0.25, 1.0, 2.0], bags=[0, 0, 0, 1], num_machines=3)
        occupancy = Occupancy(Schedule(instance, {3: 1}))
        assert occupancy.place_bag(0, [2, 0, 1], [1.0, 0.5, 0.25], [1, 2, 0])
        assert list(occupancy.assignment.items()) == [(3, 1), (2, 1), (0, 2), (1, 0)]
        assert occupancy.loads == [0.25, 3.0, 0.5]
        assert occupancy.bags == [{0: 1}, {1: 1, 0: 1}, {0: 1}]
        assert occupancy.place_bag(2, [], [], [])
        # Job 3 is placed already: nothing changes.
        assert not occupancy.place_bag(1, [3], [2.0], [2])
        assert occupancy.loads == [0.25, 3.0, 0.5]

