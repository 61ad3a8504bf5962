"""Placement of small jobs (Section 4: Lemmas 8–10, Corollary 1).

Two different mechanisms are used, mirroring the paper:

* **Non-priority bags** (after the transformation they contain only small
  jobs and fillers): machines are grouped by their current height rounded up
  to a multiple of ``eps``; *group-bag-LPT* routes each bag's jobs to groups
  (largest jobs to the least loaded group) and *bag-LPT* spreads them inside
  each group on pairwise distinct machines (Lemmas 8 and 9).

* **Priority bags**: the MILP's ``y`` variables say how many jobs of each
  size-restricted priority bag sit on top of each pattern.  Full units are
  placed as whole jobs; the fractional remainder of a bag on a pattern is
  merged into equal-height artificial jobs (Corollary 1), which are placed
  with bag-LPT and then serve as slots for the real fractionally-assigned
  jobs (Lemma 10).

The small classes and their job ids come from the guess's
:class:`~repro.eptas.patterns.JobTable`; the ``y`` values of class ``c`` are
read as ``solution.small_assignment[c]``, by the class's index.

The non-priority bags (:func:`place_non_priority_bags`) hold most small jobs,
and are placed from the instance's job table alone: ids, sizes and bags by
row, one ``np.lexsort`` for every bag's bag-LPT order, and one bulk
:meth:`~repro.core.schedule.Occupancy.place_bag` per chunk.  They read no
:class:`~repro.core.job.Job`, so a guess without priority bags never builds
its rounded instance's jobs.

Every step keeps the bag constraint *within the transformed instance*; the
only conflicts that can remain afterwards are between priority small jobs
and large jobs that were moved by the Lemma-7 swap, and those are repaired
by :mod:`repro.eptas.repair`.  Jobs go on through one
:class:`~repro.core.schedule.Occupancy` built from the large placement's
schedule; a job whose chosen machine already holds its bag, or that no
step placed, takes the defensive path,
:meth:`~repro.core.schedule.Occupancy.least_loaded`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..baselines.lpt import LptBag, bag_lpt, group_bag_lpt, lpt_sorted
from ..core.errors import AlgorithmError
from ..core.instance import Instance
from ..core.job import Job
from ..core.schedule import Occupancy
from .classification import BagClasses, JobClasses
from .large_jobs import LargePlacement
from .milp import ConfigurationSolution
from .params import DerivedConstants
from .patterns import JobTable

__all__ = ["SmallPlacementDiagnostics", "place_non_priority_bags", "place_small_jobs"]


@dataclass(slots=True)
class SmallPlacementDiagnostics:
    """Counters reported by the small-job placement stage."""

    non_priority_jobs: int = 0
    priority_full_jobs: int = 0
    priority_slot_jobs: int = 0
    priority_fallback_jobs: int = 0
    machine_groups: int = 0
    merged_slots: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "non_priority_jobs": self.non_priority_jobs,
            "priority_full_jobs": self.priority_full_jobs,
            "priority_slot_jobs": self.priority_slot_jobs,
            "priority_fallback_jobs": self.priority_fallback_jobs,
            "machine_groups": self.machine_groups,
            "merged_slots": self.merged_slots,
        }


def _non_priority_bags(instance: Instance, rows: np.ndarray) -> dict[int, LptBag]:
    """The jobs of ``rows`` by bag, as group-bag-LPT takes them.

    Bags come largest area first, ties by ascending bag index; each area is
    the Python ``sum`` of the bag's sizes in row order, as a job-by-job sum
    over the instance's bag gives it.  Each bag's ids and sizes are in
    bag-LPT order (size descending, ties by id), sorted for all bags at once
    by one ``np.lexsort``.
    """
    rows = np.sort(rows)
    rows = rows[np.argsort(instance.job_bags[rows], kind="stable")]  # by bag, then row
    ids, sizes, job_bags = instance.row_ids[rows], instance.sizes[rows], instance.job_bags[rows]
    bounds = [0, *(np.flatnonzero(job_bags[1:] != job_bags[:-1]) + 1).tolist(), len(rows)]
    by_row = sizes.tolist()
    areas = [sum(by_row[start:end]) for start, end in zip(bounds, bounds[1:])]
    lpt = np.lexsort((ids, -sizes, job_bags))  # the same bag runs, each in bag-LPT order
    id_by_row = instance.job_id_by_row
    lpt_ids = [id_by_row[row] for row in rows[lpt].tolist()]
    lpt_sizes = sizes[lpt].tolist()
    bag_of = job_bags[bounds[:-1]].tolist()
    # A stable sort with reverse=True keeps tied areas in ascending bag order.
    return {
        bag_of[k]: (lpt_ids[bounds[k] : bounds[k + 1]], lpt_sizes[bounds[k] : bounds[k + 1]])
        for k in sorted(range(len(areas)), key=areas.__getitem__, reverse=True)
    }


def _place_least_loaded(occupancy: Occupancy, job: Job) -> None:
    """The defensive path: the least-loaded machine without the job's bag."""
    machine = occupancy.least_loaded(job.bag)
    if machine is None:
        raise AlgorithmError(
            f"no conflict-free machine available for small job {job.id} "
            f"of bag {job.bag}"
        )
    occupancy.assign(job, machine)


def place_non_priority_bags(
    instance: Instance,
    table: JobTable,
    priority: frozenset[int],
    groups: dict[int, list[int]],
    grouping_height: list[float],
    occupancy: Occupancy,
) -> int:
    """Section C: place the small jobs of the non-priority bags; return their number.

    After the transformation a non-priority bag is all small (an original
    bag) or has no small job (a companion bag).  Its small jobs are the
    table's classes of that bag, read as rows of the instance's job table;
    no :class:`~repro.core.job.Job` is read.  Group-bag-LPT routes each bag,
    largest area first, to the machine ``groups`` (by their average
    ``grouping_height``), and bag-LPT spreads each group's chunks over its
    machines, starting from those heights.  Each chunk goes on through one
    :meth:`~repro.core.schedule.Occupancy.place_bag`, groups in order, then
    their chunks in routing order, then each chunk's jobs in bag-LPT order:
    the order bag-LPT placed them in.  A chunk that ``place_bag`` refuses,
    which the transformation rules out, is placed job by job, and a job whose
    machine already holds its bag takes the defensive path.
    """
    rows = instance.rows_of(
        chain.from_iterable(small.job_ids for small in table.small if small.bag not in priority)
    )
    if not rows.size:
        return 0
    group_sizes = {group: len(machines) for group, machines in groups.items()}
    group_avg = {
        group: sum(grouping_height[m] for m in machines) / len(machines)
        for group, machines in groups.items()
    }
    routed = group_bag_lpt(group_sizes, group_avg, _non_priority_bags(instance, rows))
    bags = occupancy.bags
    for group, chunks in routed.bags_per_group.items():
        if not chunks:
            continue
        machines = groups[group]
        spread = bag_lpt(
            machines,
            {machine: grouping_height[machine] for machine in machines},
            chunks.values(),
        )
        for (bag, (job_ids, sizes)), targets in zip(chunks.items(), spread.machines):
            if not occupancy.place_bag(bag, job_ids, sizes, targets):
                for job_id, machine in zip(job_ids, targets):
                    job = instance.job(job_id)
                    if bag in bags[machine]:
                        _place_least_loaded(occupancy, job)
                    else:
                        occupancy.assign(job, machine)
    return len(rows)


@dataclass(slots=True)
class _PatternBagAllocation:
    """Per (pattern, priority bag) bookkeeping for Corollary 1."""

    full_job_ids: list[int] = field(default_factory=list)
    fractional_area: float = 0.0


def place_small_jobs(
    instance: Instance,
    job_classes: JobClasses,
    bag_classes: BagClasses,
    constants: DerivedConstants,
    table: JobTable,
    solution: ConfigurationSolution,
    placement: LargePlacement,
) -> SmallPlacementDiagnostics:
    """Place every small job of the transformed instance (mutates the schedule).

    ``table.small`` must be the small classes of the configuration model
    that ``solution`` solves.
    """
    eps = job_classes.eps
    schedule = placement.schedule
    diagnostics = SmallPlacementDiagnostics()

    occupancy = Occupancy(schedule)
    loads, bags = occupancy.loads, occupancy.bags

    # ------------------------------------------------------------------
    # A. Interpret the y variables of priority bags.
    # ------------------------------------------------------------------
    pattern_area: dict[int, float] = {}
    allocations: dict[tuple[int, int], _PatternBagAllocation] = {}
    remaining_priority: dict[int, list[Job]] = {}

    # The classes come in (bag, size) order, their y values in pattern order.
    for small, entries in zip(table.small, solution.small_assignment, strict=True):
        bag, size = small.bag, small.size
        if bag not in bag_classes.priority:
            continue
        job_ids = small.job_ids
        taken = 0
        # Full units first (the MILP enforces integrality for the larger
        # priority sizes, so most of the mass is integral already).
        for pattern_index, value in entries:
            pattern_area[pattern_index] = pattern_area.get(pattern_index, 0.0) + value * size
            full_units = int(math.floor(value + 1e-9))
            allocation = allocations.setdefault(
                (pattern_index, bag), _PatternBagAllocation()
            )
            take = min(full_units, len(job_ids) - taken)
            allocation.full_job_ids.extend(job_ids[taken : taken + take])
            taken += take
            residual = value - full_units
            if residual > 1e-9:
                allocation.fractional_area += residual * size
        if taken < len(job_ids):
            remaining_priority.setdefault(bag, []).extend(
                instance.job(job_id) for job_id in job_ids[taken:]
            )

    # ------------------------------------------------------------------
    # B. Group machines by rounded height (pattern load + reserved area).
    # ------------------------------------------------------------------
    machines_of_pattern: dict[int, list[int]] = {}
    for machine, pattern_index in enumerate(placement.machine_pattern):
        if pattern_index is None:
            continue
        machines_of_pattern.setdefault(pattern_index, []).append(machine)

    reserved: list[float] = [0.0] * instance.num_machines
    for pattern_index, machines in machines_of_pattern.items():
        area = pattern_area.get(pattern_index, 0.0)
        if machines and area > 0:
            share = area / len(machines)
            for machine in machines:
                reserved[machine] = share

    grouping_height = [loads[m] + reserved[m] for m in range(instance.num_machines)]
    groups: dict[int, list[int]] = {}
    for machine in range(instance.num_machines):
        rounded = math.ceil(grouping_height[machine] / eps - 1e-9) * eps
        groups.setdefault(int(round(rounded / eps)), []).append(machine)
    diagnostics.machine_groups = len(groups)

    # ------------------------------------------------------------------
    # C. Non-priority bags: group-bag-LPT across groups, bag-LPT inside.
    # ------------------------------------------------------------------
    diagnostics.non_priority_jobs = place_non_priority_bags(
        instance, table, bag_classes.priority, groups, grouping_height, occupancy
    )

    # ------------------------------------------------------------------
    # D. Priority bags: Corollary 1 merged jobs + Lemma 10 slot filling.
    # ------------------------------------------------------------------
    slot_threshold = constants.small_integral_threshold
    synthetic_id = max(instance.job_ids, default=0) + 1
    slots_by_bag: dict[int, list[int]] = {}

    for pattern_index, machines in machines_of_pattern.items():
        if not machines:
            continue
        bag_entries = [
            (bag, allocation)
            for (p_index, bag), allocation in allocations.items()
            if p_index == pattern_index
        ]
        if not bag_entries:
            continue
        modified_bags: list[LptBag] = []
        slot_bag: dict[int, int] = {}  # synthetic id -> bag
        for bag, allocation in sorted(bag_entries):
            job_ids = list(allocation.full_job_ids)
            heights = instance.sizes[instance.rows_of(job_ids)].tolist()
            num_merged = max(0, len(machines) - len(job_ids))
            if allocation.fractional_area > 1e-12 and num_merged > 0:
                height = allocation.fractional_area / num_merged
                height = max(height, 0.0)
                rounded_height = max(height, slot_threshold)
                for _ in range(num_merged):
                    slot_bag[synthetic_id] = bag
                    job_ids.append(synthetic_id)
                    heights.append(rounded_height)
                    synthetic_id += 1
                    diagnostics.merged_slots += 1
            if job_ids:
                modified_bags.append(lpt_sorted(job_ids, heights))
        if not modified_bags:
            continue
        result = bag_lpt(
            machines,
            {machine: loads[machine] for machine in machines},
            modified_bags,
        )
        for job_id, machine in result.assignment.items():
            machine = int(machine)
            if job_id in slot_bag:
                slots_by_bag.setdefault(slot_bag[job_id], []).append(machine)
                continue
            job = instance.job(job_id)
            if job.bag in bags[machine]:
                _place_least_loaded(occupancy, job)
                diagnostics.priority_fallback_jobs += 1
            else:
                occupancy.assign(job, machine)
                diagnostics.priority_full_jobs += 1

    # Lemma 10: fill the merged slots with the real fractionally-assigned jobs.
    for bag, jobs in remaining_priority.items():
        slots = slots_by_bag.get(bag, [])
        jobs_sorted = sorted(jobs, key=lambda job: (-job.size, job.id))
        for job in jobs_sorted:
            while slots and bag in bags[slots[-1]]:
                slots.pop()
            if slots:
                occupancy.assign(job, slots.pop())
                diagnostics.priority_slot_jobs += 1
            else:
                _place_least_loaded(occupancy, job)
                diagnostics.priority_fallback_jobs += 1

    # ------------------------------------------------------------------
    # E. Safety net: any small job that slipped through every path above
    #    (e.g. a priority class the MILP over-covered with patterns whose
    #    machines were never materialised) is placed greedily, classes in
    #    (bag, size) order.  A complete schedule has none.
    # ------------------------------------------------------------------
    if schedule.num_assigned < instance.num_jobs:
        for small in table.small:
            for job_id in small.job_ids:
                if job_id not in schedule:
                    _place_least_loaded(occupancy, instance.job(job_id))
                    diagnostics.priority_fallback_jobs += 1

    return diagnostics
