"""Schedule model: an assignment of jobs to machines plus feasibility checks.

A :class:`Schedule` maps every job of an :class:`~repro.core.instance.Instance`
to one of the ``m`` machines.  The central feasibility notion of the paper is
*conflict-freeness*: no machine may hold two jobs of the same bag.  The class
offers makespan/load computation, conflict enumeration, validation, mutation
helpers used by the repair procedures (Lemmas 4, 7 and 11), and serialization.

Whole-schedule reads run at C speed.  The assignment's ids and machines
become two int64 arrays, and every size and bag is read through the
instance's job table (:meth:`~repro.core.instance.Instance.rows_of`), never
through one :meth:`~repro.core.instance.Instance.job` call per job.  Loads are
one ``np.bincount``, which adds the sizes in assignment order.  The conflict
test packs each (machine, bag) pair into one int64 key and sorts the keys
once: a conflict-free schedule has no repeated key.  Only when a key repeats,
or when the packing could overflow int64, does the three-key ``np.lexsort``
run that lists the conflicts in (machine, bag, id) order.

An :class:`Occupancy` wraps a schedule while a stage builds or repairs it:
it keeps every machine's load and per-bag job count current through its own
``assign``, ``place_bag`` (many jobs of one bag at once) and ``swap``, and
names the least-loaded machine without a job of a given bag.  The greedy
baselines, local search and every placement, repair and revert stage of the
EPTAS place jobs through one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidScheduleError
from .instance import Instance
from .job import Job

__all__ = ["Schedule", "Occupancy", "Conflict", "ValidationReport"]


_INT64_MAX = int(np.iinfo(np.int64).max)


def _columns(assignment: Mapping[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Job ids and machines of an assignment as arrays, in its order."""
    count = len(assignment)
    return (
        np.fromiter(assignment, dtype=np.int64, count=count),
        np.fromiter(assignment.values(), dtype=np.int64, count=count),
    )


def _packed_keys(machines: np.ndarray, bags: np.ndarray) -> np.ndarray | None:
    """One int64 per (machine, bag) pair, equal exactly when the pairs are.

    The key is ``(machine - low) * width + (bag - low_bag)``, where ``low``
    and ``low_bag`` are the smallest machine and bag and ``width`` spans the
    bags, so machines outside ``[0, m)`` and bag ids up to ``2**40`` pack
    too.  Returns ``None`` when the largest key could overflow int64.
    """
    if not machines.size:
        return machines
    low, low_bag = int(machines.min()), int(bags.min())
    width = int(bags.max()) - low_bag + 1
    if (int(machines.max()) - low + 1) * width > _INT64_MAX:
        return None
    return (machines - low) * width + (bags - low_bag)


def _conflicts(ids: np.ndarray, machines: np.ndarray, bags: np.ndarray) -> list[Conflict]:
    """The conflicts among parallel id, machine and bag arrays.

    Sorted by machine, bag and job ids; each group of ``j`` jobs of one bag
    on one machine yields ``j - 1`` conflicts anchored at its smallest id.
    One sort of the packed keys clears a schedule without a repeated pair;
    the three-key ``np.lexsort`` runs only after a repeat, or when the keys
    could overflow, and it alone decides which conflicts there are.
    """
    keys = _packed_keys(machines, bags)
    if keys is not None:
        keys = np.sort(keys)
        if not (keys[1:] == keys[:-1]).any():
            return []
    order = np.lexsort((ids, bags, machines))
    ids, machines, bags = ids[order], machines[order], bags[order]
    repeats = (machines[1:] == machines[:-1]) & (bags[1:] == bags[:-1])
    others = np.flatnonzero(repeats) + 1
    if not others.size:
        return []
    # Every member of a (machine, bag) group after its first pairs with
    # the first, which holds the group's smallest id.
    starts = np.concatenate(([True], ~repeats))
    first = np.maximum.accumulate(np.where(starts, np.arange(len(ids)), 0))
    return [
        Conflict(machine=machine, bag=bag, job_a=job_a, job_b=job_b)
        for machine, bag, job_a, job_b in zip(
            machines[others].tolist(),
            bags[others].tolist(),
            ids[first[others]].tolist(),
            ids[others].tolist(),
        )
    ]


@dataclass(frozen=True, slots=True)
class Conflict:
    """A violation of the bag constraint: two jobs of one bag on one machine."""

    machine: int
    bag: int
    job_a: int
    job_b: int

    def to_dict(self) -> dict[str, int]:
        return {
            "machine": self.machine,
            "bag": self.bag,
            "job_a": self.job_a,
            "job_b": self.job_b,
        }


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Outcome of :meth:`Schedule.validation_report`.

    ``is_feasible`` is ``True`` iff all jobs are assigned to valid machines
    and there are no conflicts.
    """

    missing_jobs: tuple[int, ...]
    unknown_jobs: tuple[int, ...]
    invalid_machines: tuple[int, ...]
    conflicts: tuple[Conflict, ...]

    @property
    def is_feasible(self) -> bool:
        return not (
            self.missing_jobs
            or self.unknown_jobs
            or self.invalid_machines
            or self.conflicts
        )

    def summary(self) -> str:
        if self.is_feasible:
            return "feasible"
        parts = []
        if self.missing_jobs:
            parts.append(f"{len(self.missing_jobs)} unassigned jobs")
        if self.unknown_jobs:
            parts.append(f"{len(self.unknown_jobs)} unknown jobs")
        if self.invalid_machines:
            parts.append(f"{len(self.invalid_machines)} invalid machine indices")
        if self.conflicts:
            parts.append(f"{len(self.conflicts)} bag conflicts")
        return "infeasible: " + ", ".join(parts)


class Schedule:
    """An assignment of jobs to machines for a fixed instance.

    Parameters
    ----------
    instance:
        The instance being scheduled.
    assignment:
        Mapping ``job id -> machine index``.  Machine indices are
        ``0``-based and must lie in ``range(instance.num_machines)``.
        Jobs may stay unassigned while a solver builds the schedule in
        stages (the EPTAS places large jobs first, then small jobs);
        :meth:`validate` rejects an unassigned job unless called with
        ``require_complete=False``, and the final result of every public
        solver is complete and validated.
    """

    __slots__ = ("_instance", "_assignment")

    def __init__(self, instance: Instance, assignment: Mapping[int, int] | None = None) -> None:
        self._instance = instance
        self._assignment: dict[int, int] = dict(assignment or {})

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def instance(self) -> Instance:
        """The instance this schedule belongs to."""
        return self._instance

    @property
    def assignment(self) -> dict[int, int]:
        """A copy of the ``job id -> machine`` mapping."""
        return dict(self._assignment)

    @property
    def num_assigned(self) -> int:
        """Number of jobs currently assigned."""
        return len(self._assignment)

    @property
    def is_complete(self) -> bool:
        """``True`` when every job of the instance has a machine."""
        return len(self._assignment) == self._instance.num_jobs and all(
            job.id in self._assignment for job in self._instance.jobs
        )

    def machine_of(self, job_id: int) -> int | None:
        """Machine of the given job, or ``None`` when unassigned."""
        return self._assignment.get(job_id)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._assignment

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(instance={self._instance.name!r}, "
            f"assigned={self.num_assigned}/{self._instance.num_jobs}, "
            f"makespan={self.makespan():.6g})"
        )

    # ------------------------------------------------------------------
    # Mutation (returns self for chaining; schedules are cheap builders)
    # ------------------------------------------------------------------
    def assign(self, job_id: int, machine: int) -> "Schedule":
        """Assign (or move) a job to a machine."""
        if job_id not in self._instance:
            raise InvalidScheduleError(
                f"cannot assign unknown job {job_id} in instance {self._instance.name!r}"
            )
        if not 0 <= machine < self._instance.num_machines:
            raise InvalidScheduleError(
                f"machine index {machine} out of range [0, {self._instance.num_machines})"
            )
        self._assignment[job_id] = machine
        return self

    def assign_many(self, pairs: Iterable[tuple[int, int]]) -> "Schedule":
        """Assign many ``(job id, machine)`` pairs at once."""
        for job_id, machine in pairs:
            self.assign(job_id, machine)
        return self

    def swap(self, job_a: int, job_b: int) -> "Schedule":
        """Exchange the machines of two assigned jobs.

        This is the primitive used by the repair procedures of Lemmas 4, 7
        and 11: conflicts are resolved by swapping a conflicting job with a
        same-size (or filler) job on another machine.
        """
        machine_a = self._assignment.get(job_a)
        machine_b = self._assignment.get(job_b)
        if machine_a is None or machine_b is None:
            raise InvalidScheduleError(
                f"both jobs must be assigned before swapping (jobs {job_a}, {job_b})"
            )
        self._assignment[job_a], self._assignment[job_b] = machine_b, machine_a
        return self

    def copy(self) -> "Schedule":
        """Return an independent copy of this schedule."""
        return Schedule(self._instance, self._assignment)

    # ------------------------------------------------------------------
    # Loads and makespan
    # ------------------------------------------------------------------
    def loads(self) -> np.ndarray:
        """Vector of machine loads (length ``m``).

        Sizes come from the instance's job table in one pass and
        ``np.bincount`` adds them in assignment order, so every load is the
        float a job-by-job sum gives.  A job on a machine outside ``[0, m)``
        raises :class:`InvalidScheduleError`; an id the instance does not
        know raises the ``KeyError`` of :meth:`Instance.job`.
        """
        instance = self._instance
        num_machines = instance.num_machines
        ids, machines = _columns(self._assignment)
        outside = np.flatnonzero((machines < 0) | (machines >= num_machines))
        if outside.size:
            position = outside[0]
            raise InvalidScheduleError(
                f"cannot compute loads: job {ids[position]} is on machine "
                f"{machines[position]}, outside [0, {num_machines})"
            )
        sizes = instance.sizes[instance.rows_of(self._assignment)]
        return np.bincount(machines, weights=sizes, minlength=num_machines)

    def load(self, machine: int) -> float:
        """Load of a single machine."""
        total = 0.0
        for job_id, assigned in self._assignment.items():
            if assigned == machine:
                total += self._instance.job(job_id).size
        return total

    def makespan(self) -> float:
        """Maximum machine load (``0.0`` for an empty schedule)."""
        if not self._assignment:
            return 0.0
        return float(self.loads().max())

    def machine_jobs(self) -> list[list[Job]]:
        """Per-machine job lists (length ``m``), each in assignment order."""
        machines: list[list[Job]] = [[] for _ in range(self._instance.num_machines)]
        for job_id, machine in self._assignment.items():
            machines[machine].append(self._instance.job(job_id))
        return machines

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def _known_assignment(self) -> dict[int, int]:
        """The assignment without the job ids the instance does not know."""
        instance = self._instance
        if self._assignment.keys() <= instance.job_ids:
            return self._assignment
        return {
            job_id: machine
            for job_id, machine in self._assignment.items()
            if job_id in instance
        }

    def _known_columns(
        self, known: Mapping[int, int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ids, machines and bags of ``known``, whose ids the instance knows."""
        instance = self._instance
        ids, machines = _columns(known)
        return ids, machines, instance.job_bags[instance.rows_of(known)]

    def conflicts(self) -> list[Conflict]:
        """Enumerate all bag-constraint violations in the current assignment.

        Sorted by machine, bag and job ids.  Each group of ``j`` jobs of one
        bag on one machine yields ``j - 1`` conflicts, all anchored at the
        group's smallest id.  Job ids the instance does not know have no bag
        and take part in no conflict.
        """
        return _conflicts(*self._known_columns(self._known_assignment()))

    def num_conflicts(self) -> int:
        """Number of bag-constraint violations."""
        return len(self.conflicts())

    def is_conflict_free(self) -> bool:
        """``True`` when no machine holds two jobs of one bag."""
        return not self.conflicts()

    def validation_report(self) -> ValidationReport:
        """Full structural + feasibility report (never raises)."""
        instance = self._instance
        known = self._known_assignment()
        ids, machines, bags = self._known_columns(known)
        if len(known) == instance.num_jobs:
            missing: tuple[int, ...] = ()
        else:
            missing = tuple(
                sorted(job.id for job in instance.jobs if job.id not in known)
            )
        if known is self._assignment:
            unknown: tuple[int, ...] = ()
            all_ids, all_machines = ids, machines
        else:
            unknown = tuple(sorted(self._assignment.keys() - known.keys()))
            all_ids, all_machines = _columns(self._assignment)
        outside = (all_machines < 0) | (all_machines >= instance.num_machines)
        return ValidationReport(
            missing_jobs=missing,
            unknown_jobs=unknown,
            invalid_machines=tuple(np.sort(all_ids[outside]).tolist()),
            conflicts=tuple(_conflicts(ids, machines, bags)),
        )

    def validate(self, *, require_complete: bool = True) -> "Schedule":
        """Raise :class:`InvalidScheduleError` if the schedule is infeasible.

        Parameters
        ----------
        require_complete:
            If ``True`` (default) every job of the instance must be
            assigned.  Partial schedules used internally pass ``False``.
        """
        report = self.validation_report()
        problems: list[str] = []
        if require_complete and report.missing_jobs:
            problems.append(f"unassigned jobs: {list(report.missing_jobs)[:10]}")
        if report.unknown_jobs:
            problems.append(f"unknown jobs: {list(report.unknown_jobs)[:10]}")
        if report.invalid_machines:
            problems.append(
                f"jobs on invalid machines: {list(report.invalid_machines)[:10]}"
            )
        if report.conflicts:
            problems.append(
                "bag conflicts: "
                + ", ".join(
                    f"(machine {c.machine}, bag {c.bag}, jobs {c.job_a}/{c.job_b})"
                    for c in report.conflicts[:5]
                )
                + (" ..." if len(report.conflicts) > 5 else "")
            )
        if problems:
            raise InvalidScheduleError(
                f"schedule for {self._instance.name!r} is infeasible: "
                + "; ".join(problems)
            )
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Serialize the assignment (not the instance) to a dictionary."""
        return {
            "instance": self._instance.name,
            "makespan": self.makespan(),
            "assignment": {str(job_id): machine for job_id, machine in sorted(self._assignment.items())},
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def from_dict(cls, instance: Instance, data: Mapping[str, Any]) -> "Schedule":
        assignment = {int(job_id): int(machine) for job_id, machine in data["assignment"].items()}
        return cls(instance, assignment)


class Occupancy:
    """Machine loads and per-machine bag counts of a schedule, kept current.

    Every placement stage asks which machines already hold a job of a bag
    and which of the others is least loaded.  An occupancy answers both for
    the schedule it wraps, as long as every change goes through
    :meth:`assign`, :meth:`place_bag` and :meth:`swap`:

    * ``loads[m]`` starts as :meth:`Schedule.loads` and then moves by the
      size of each job placed on or taken off ``m``, in the order of the
      changes, so it holds the floats a job-by-job sum gives;
    * ``bags[m]`` maps each bag on machine ``m`` to its number of jobs there,
      so ``bag in occupancy.bags[m]`` is the conflict test;
    * ``assignment`` is the schedule's own ``job id -> machine`` dict, for
      reading only, so ``job_id in occupancy.assignment`` tests placement
      without a method call.
    """

    __slots__ = ("schedule", "loads", "bags", "assignment", "_job_ids")

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        self.loads: list[float] = schedule.loads().tolist()
        self.bags: list[dict[int, int]] = [{} for _ in self.loads]
        instance = schedule.instance
        self.assignment = assignment = schedule._assignment
        self._job_ids = instance.job_ids
        job_bags = instance.job_bags[instance.rows_of(assignment)]
        for machine, bag in zip(assignment.values(), job_bags.tolist()):
            counts = self.bags[machine]
            counts[bag] = counts.get(bag, 0) + 1

    def _count(self, machine: int, bag: int, step: int) -> None:
        counts = self.bags[machine]
        count = counts.get(bag, 0) + step
        if count:
            counts[bag] = count
        else:
            del counts[bag]

    def assign(self, job: Job, machine: int) -> None:
        """Place ``job`` on ``machine``, or move it there from its machine.

        Raises what :meth:`Schedule.assign` raises for an unknown job or a
        machine outside ``[0, m)``.
        """
        job_id, bag, loads = job.id, job.bag, self.loads
        assignment = self.assignment
        source = assignment.get(job_id)
        if source == machine:
            return
        # Schedule.assign's two checks, inline; it raises their errors.
        if job_id not in self._job_ids or not 0 <= machine < len(loads):
            self.schedule.assign(job_id, machine)
        assignment[job_id] = machine
        if source is not None:
            loads[source] -= job.size
            self._count(source, bag, -1)
        loads[machine] += job.size
        # Placing is the hot path of greedy and small placement: count inline.
        counts = self.bags[machine]
        counts[bag] = counts.get(bag, 0) + 1

    def place_bag(
        self, bag: int, job_ids: Sequence[int], sizes: Sequence[float], machines: Sequence[int]
    ) -> bool:
        """Place jobs of ``bag`` that are not placed yet, one per machine, in order.

        The bulk form of :meth:`assign`: job ``job_ids[i]``, whose size is
        ``sizes[i]``, goes to ``machines[i]``.  It places only when every id
        is the instance's and unplaced, and the machines are distinct, in
        ``[0, m)`` and free of ``bag``.  Then the jobs enter the assignment
        in order, every load and bag count moves as one :meth:`assign` per
        job would move it, and the result is ``True``.  Otherwise nothing
        changes and the result is ``False``: the caller places those jobs one
        by one, and :meth:`assign` raises for an unknown job or machine.
        """
        loads, counts_of, assignment = self.loads, self.bags, self.assignment
        if machines and (
            len(set(machines)) != len(machines)
            or min(machines) < 0
            or max(machines) >= len(loads)
            or not assignment.keys().isdisjoint(job_ids)
            or not self._job_ids >= set(job_ids)
        ):
            return False
        for machine in machines:
            if bag in counts_of[machine]:
                return False
        assignment.update(zip(job_ids, machines))
        for machine, size in zip(machines, sizes):
            loads[machine] += size
            counts_of[machine][bag] = 1
        return True

    def swap(self, job_a: Job, job_b: Job) -> None:
        """Exchange the machines of two assigned jobs."""
        machine_a = self.schedule.machine_of(job_a.id)
        machine_b = self.schedule.machine_of(job_b.id)
        self.schedule.swap(job_a.id, job_b.id)
        if machine_a == machine_b:
            return
        delta = job_a.size - job_b.size
        self.loads[machine_a] -= delta
        self.loads[machine_b] += delta
        for machine, gone, came in ((machine_a, job_a, job_b), (machine_b, job_b, job_a)):
            self._count(machine, gone.bag, -1)
            self._count(machine, came.bag, 1)

    def least_loaded(self, bag: int) -> int | None:
        """The least-loaded machine without a job of ``bag`` (lowest index on
        ties), or ``None`` when every machine holds one."""
        free = [machine for machine, counts in enumerate(self.bags) if bag not in counts]
        return min(free, key=self.loads.__getitem__, default=None)
