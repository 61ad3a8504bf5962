"""Unit tests for :mod:`repro.core.schedule`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Instance, InvalidScheduleError, Job, Schedule
from repro.core.schedule import Conflict, ValidationReport


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
        assert {job.id for job in schedule.jobs_on(0)} == {0, 2}
        assert schedule.bags_on(0) == {0, 1}

    def test_assign_unknown_job_rejected(self, tiny_instance):
        with pytest.raises(InvalidScheduleError):
            Schedule(tiny_instance).assign(99, 0)

    def test_assign_invalid_machine_rejected(self, tiny_instance):
        with pytest.raises(InvalidScheduleError):
            Schedule(tiny_instance).assign(0, 5)

    def test_unassign(self, tiny_instance):
        schedule = Schedule(tiny_instance).assign(0, 0)
        schedule.unassign(0)
        assert 0 not in schedule
        schedule.unassign(0)  # idempotent

    def test_copy_is_independent(self, tiny_instance):
        schedule = Schedule(tiny_instance).assign(0, 0)
        copy = schedule.copy().assign(1, 1)
        assert 1 not in schedule
        assert 1 in copy

    def test_from_machine_lists(self, tiny_instance):
        schedule = Schedule.from_machine_lists(tiny_instance, [[0, 2], [1, 3]])
        assert schedule.makespan() == 5.0


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
    def test_reassigned_to_instance_drops_missing(self, tiny_instance):
        other = tiny_instance.subset([0, 1])
        schedule = Schedule(tiny_instance).assign_many([(0, 0), (1, 1), (2, 0), (3, 1)])
        moved = schedule.reassigned_to_instance(other)
        assert set(moved.assignment) == {0, 1}

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
