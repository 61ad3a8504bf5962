"""The instance transformation of Section 2.2 and its inverse (Lemmas 2–4).

For every *non-priority* bag ``B_l`` the transformation

* moves its large jobs into a fresh *companion* bag ``B'_l``,
* removes its medium jobs (they are re-inserted later, Lemma 3), and
* replaces every large and medium job inside ``B_l`` by a *filler job* of
  size ``p_max`` — the largest small-job size of ``B_l`` (``0`` when the bag
  has no small jobs).

After the transformation every non-priority bag contains only small jobs
(plus fillers) and every companion bag contains only large jobs, so the MILP
may schedule large and small jobs of those bags independently.  When every
large and medium job already sits in a priority bag there is nothing to
split, and the transformation is the identity.  Lemma 2 bounds the optimum
of the transformed instance by ``(1 + eps)`` times the original optimum;
Lemma 3 re-inserts the removed medium jobs through an integral flow; Lemma 4
converts a solution of the transformed instance back into a solution of the
original instance by swapping conflicting small jobs into filler positions
and dropping the fillers.

Both re-insertion and revert place jobs through an
:class:`~repro.core.schedule.Occupancy`; their defensive paths (the greedy
completion after the flow, and a small job without a free filler position)
take :meth:`~repro.core.schedule.Occupancy.least_loaded`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.errors import AlgorithmError
from ..core.instance import Instance
from ..core.job import Job
from ..core.schedule import Occupancy, Schedule
from ..flows import AssignmentProblem, solve_bag_assignment
from .classification import BagClasses, JobClasses

__all__ = [
    "TransformationRecord",
    "transform_instance",
    "forward_transform_schedule",
    "reinsert_medium_jobs",
    "revert_to_original",
]


@dataclass(slots=True)
class TransformationRecord:
    """Everything needed to map solutions between ``I`` and ``I'``.

    When no non-priority bag holds a large or medium job, the transformation
    is the identity: ``original``, ``transformed`` and ``augmented`` are the
    same instance object, and the record has no companion bags, fillers,
    removed medium jobs or moved large jobs.

    Attributes
    ----------
    original:
        The (scaled, rounded) instance ``I`` the transformation started from.
    transformed:
        The modified instance ``I'``: non-priority bags hold small jobs and
        fillers, companion bags hold the large jobs, medium jobs of
        non-priority bags are absent.
    augmented:
        ``I'`` plus the removed medium jobs, re-attached to their companion
        bags.  Lemma 3 schedules exactly this job set.
    companion_bag:
        ``original bag index -> companion bag index`` (only for transformed
        non-priority bags).
    filler_for:
        ``filler job id -> original job id`` it stands in for.
    fillers_by_bag / removed_medium / moved_large:
        Per original non-priority bag: the filler job ids, the removed
        medium job ids and the large job ids moved to the companion bag.
    """

    original: Instance
    transformed: Instance
    augmented: Instance
    job_classes: JobClasses
    bag_classes: BagClasses
    companion_bag: dict[int, int] = field(default_factory=dict)
    filler_for: dict[int, int] = field(default_factory=dict)
    fillers_by_bag: dict[int, list[int]] = field(default_factory=dict)
    removed_medium: dict[int, list[int]] = field(default_factory=dict)
    moved_large: dict[int, list[int]] = field(default_factory=dict)
    diagnostics: dict[str, int] = field(default_factory=dict)

    @property
    def num_filler_jobs(self) -> int:
        return len(self.filler_for)

    @property
    def num_removed_medium(self) -> int:
        return sum(len(ids) for ids in self.removed_medium.values())


def transform_instance(
    instance: Instance, job_classes: JobClasses, bag_classes: BagClasses
) -> TransformationRecord:
    """Apply the Section-2.2 transformation to a scaled and rounded instance.

    ``job_classes`` must classify the jobs of ``instance``.  When every bag
    with a large or medium job is a priority bag, the record is the identity
    on ``instance`` (see :class:`TransformationRecord`).
    """
    heavy = job_classes.medium_or_large
    heavy_bags = set(instance.job_bags[instance.rows_of(heavy)].tolist())
    if heavy_bags <= bag_classes.priority:
        return TransformationRecord(
            original=instance,
            transformed=instance,
            augmented=instance,
            job_classes=job_classes,
            bag_classes=bag_classes,
        )

    next_job_id = max(instance.job_ids, default=-1) + 1
    next_bag = max(instance.bag_indices, default=-1) + 1

    transformed_jobs: list[Job] = []
    augmented_extra: list[Job] = []
    companion_bag: dict[int, int] = {}
    filler_for: dict[int, int] = {}
    fillers_by_bag: dict[int, list[int]] = {}
    removed_medium: dict[int, list[int]] = {}
    moved_large: dict[int, list[int]] = {}

    for bag, members in instance.bags().items():
        if bag in bag_classes.priority:
            transformed_jobs.extend(members)
            continue
        large = [job for job in members if job.id in job_classes.large]
        medium = [job for job in members if job.id in job_classes.medium]
        small = [job for job in members if job.id in job_classes.small]
        if not large and not medium:
            # Nothing to split: the bag already contains only small jobs.
            transformed_jobs.extend(members)
            continue
        p_max = max((job.size for job in small), default=0.0)
        companion = next_bag
        next_bag += 1
        companion_bag[bag] = companion
        fillers_by_bag[bag] = []
        removed_medium[bag] = [job.id for job in medium]
        moved_large[bag] = [job.id for job in large]

        # Small jobs stay in the original bag untouched.
        transformed_jobs.extend(small)
        # Large jobs move to the companion bag (same id, same size).
        for job in large:
            transformed_jobs.append(job.with_bag(companion))
        # Every large and medium job leaves a filler of size p_max behind.
        for job in large + medium:
            filler = Job(
                id=next_job_id,
                size=p_max,
                bag=bag,
                meta={"filler_for": job.id},
            )
            next_job_id += 1
            transformed_jobs.append(filler)
            filler_for[filler.id] = job.id
            fillers_by_bag[bag].append(filler.id)
        # Medium jobs are removed from I' but re-appear in the augmented
        # instance attached to the companion bag (Lemma 3 schedules them).
        for job in medium:
            augmented_extra.append(job.with_bag(companion))

    transformed = Instance(
        transformed_jobs,
        instance.num_machines,
        name=f"{instance.name}#transformed",
        validate=False,
    )
    augmented = Instance(
        list(transformed_jobs) + augmented_extra,
        instance.num_machines,
        name=f"{instance.name}#augmented",
        validate=False,
    )
    return TransformationRecord(
        original=instance,
        transformed=transformed,
        augmented=augmented,
        job_classes=job_classes,
        bag_classes=bag_classes,
        companion_bag=companion_bag,
        filler_for=filler_for,
        fillers_by_bag=fillers_by_bag,
        removed_medium=removed_medium,
        moved_large=moved_large,
    )


def forward_transform_schedule(
    record: TransformationRecord, schedule: Schedule
) -> Schedule:
    """Lemma 2 construction: turn a solution of ``I`` into one of ``I'``.

    Original jobs keep their machine; each filler job is placed on the
    machine of the job it replaces.  Medium jobs of non-priority bags have no
    counterpart in ``I'`` and are simply dropped.  Used by tests to verify
    the ``(1 + eps) * C`` bound of Lemma 2 constructively.
    """
    assignment: dict[int, int] = {}
    for job in record.transformed.jobs:
        if job.id in record.filler_for:
            source = record.filler_for[job.id]
            machine = schedule.machine_of(source)
        else:
            machine = schedule.machine_of(job.id)
        if machine is None:
            raise AlgorithmError(
                f"forward transformation: job {job.id} (or its source) is "
                "unassigned in the input schedule"
            )
        assignment[job.id] = machine
    return Schedule(record.transformed, assignment)


def reinsert_medium_jobs(
    record: TransformationRecord, schedule: Schedule
) -> Schedule:
    """Lemma 3: add the removed medium jobs back via an integral flow.

    ``schedule`` must be a complete solution of ``record.transformed``.  The
    returned schedule is over ``record.augmented`` and places every removed
    medium job on a machine that carries no other job of its companion bag.
    The flow follows the paper's construction; a greedy completion handles
    any residual demand so the procedure always succeeds (the companion bag
    has at most ``m`` members, so a free machine always exists).
    """
    augmented = record.augmented
    num_machines = augmented.num_machines
    result = Schedule(augmented, schedule.assignment)

    pending = {
        bag: list(job_ids) for bag, job_ids in record.removed_medium.items() if job_ids
    }
    if not pending:
        return result

    # Machines free for a bag: no job of its companion bag assigned yet.  The
    # removed medium jobs carry the companion bag in the augmented instance.
    occupancy = Occupancy(result)
    companion = record.companion_bag
    free_machines: dict[int, list[int]] = {
        bag: [m for m in range(num_machines) if companion[bag] not in occupancy.bags[m]]
        for bag in pending
    }

    # Even fractional spreading -> per-machine capacity ceil(sum_j x_ij).
    fractional_load = [0.0] * num_machines
    for bag, job_ids in pending.items():
        free = free_machines[bag]
        if not free:
            raise AlgorithmError(
                f"no machine is free of companion bag jobs for bag {bag}; "
                "the companion bag has more members than machines"
            )
        share = len(job_ids) / len(free)
        for machine in free:
            fractional_load[machine] += share
    capacities = {
        machine: int(math.ceil(fractional_load[machine] - 1e-9))
        for machine in range(num_machines)
    }

    problem = AssignmentProblem(
        demands={bag: len(job_ids) for bag, job_ids in pending.items()},
        machine_capacities=capacities,
        allowed=free_machines,
    )
    flow_result = solve_bag_assignment(problem)

    placed_by_flow = 0
    for bag, machines in flow_result.assignment.items():
        job_ids = pending[bag]
        for machine, job_id in zip(machines, job_ids):
            occupancy.assign(augmented.job(job_id), machine)
            placed_by_flow += 1
        pending[bag] = job_ids[len(machines):]

    # Greedy completion for any residual demand (only triggered when the
    # capacity rounding was too tight; correctness does not depend on it).
    fallback_placed = 0
    for bag, job_ids in pending.items():
        for job_id in job_ids:
            machine = occupancy.least_loaded(companion[bag])
            if machine is None:
                raise AlgorithmError(
                    f"cannot re-insert medium job {job_id}: every machine "
                    f"already holds a job of companion bag {companion[bag]}"
                )
            occupancy.assign(augmented.job(job_id), machine)
            fallback_placed += 1

    record.diagnostics["medium_placed_by_flow"] = placed_by_flow
    record.diagnostics["medium_placed_by_fallback"] = fallback_placed
    return result


def revert_to_original(
    record: TransformationRecord, schedule: Schedule
) -> Schedule:
    """Lemma 4: map a solution of the augmented instance back to ``I``.

    Original jobs keep their machines; fillers are dropped.  Conflicts of the
    original instance (a small job sharing a machine with a large/medium job
    of the same original bag — the two were in different bags of ``I'``) are
    repaired by moving the small job into the position of an unused filler of
    its bag on a machine free of that bag.  The filler's size is at least the
    small job's size, so no machine load exceeds its load in the input
    schedule.
    """
    original = record.original
    machine_of = schedule.assignment.get
    assignment = {job_id: machine_of(job_id) for job_id in original.job_ids}
    if None in assignment.values():
        missing = next(job_id for job_id, machine in assignment.items() if machine is None)
        raise AlgorithmError(
            f"revert: job {missing} of the original instance is unassigned "
            "in the augmented solution"
        )
    result = Schedule(original, assignment)

    swaps = 0
    fallback_moves = 0
    # Built at the first conflict, so a revert without one pays nothing for it.
    occupancy: Occupancy | None = None

    for bag in record.companion_bag:
        members = original.bag(bag)
        heavy_ids = {
            job.id
            for job in members
            if job.id in record.job_classes.medium_or_large
        }
        smalls = [job for job in members if job.id not in heavy_ids]
        if not heavy_ids or not smalls:
            continue
        heavy_machines = {result.machine_of(job_id) for job_id in heavy_ids}

        # Fillers of this bag sitting on machines free of heavy bag jobs are
        # the available swap targets.
        available_fillers: list[tuple[int, int]] = []  # (machine, filler id)
        for filler_id in record.fillers_by_bag.get(bag, []):
            machine = schedule.machine_of(filler_id)
            if machine is None:
                continue
            if machine not in heavy_machines:
                available_fillers.append((machine, filler_id))

        for job in smalls:
            if result.machine_of(job.id) not in heavy_machines:
                continue
            # Conflict: small job shares a machine with a heavy job of its bag.
            occupancy = occupancy or Occupancy(result)
            target: int | None = None
            # Prefer an unused filler position on a machine that carries no
            # other job of this bag (the standard Lemma-4 swap).
            while available_fillers:
                candidate_machine, _ = available_fillers.pop()
                if bag not in occupancy.bags[candidate_machine]:
                    target = candidate_machine
                    swaps += 1
                    break
            if target is None:
                # Defensive fallback (the counting argument of Lemma 4 shows
                # a filler is always available; keep the schedule feasible
                # regardless of numerical corner cases).
                target = occupancy.least_loaded(bag)
                if target is None:
                    raise AlgorithmError(
                        f"revert: no conflict-free machine available for job {job.id}"
                    )
                fallback_moves += 1
            occupancy.assign(job, target)

    record.diagnostics["revert_swaps"] = swaps
    record.diagnostics["revert_fallback_moves"] = fallback_moves
    return result
