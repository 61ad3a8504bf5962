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
from operator import attrgetter

from ..baselines.lpt import bag_lpt, group_bag_lpt
from ..core.errors import AlgorithmError
from ..core.instance import Instance
from ..core.job import Job
from ..core.schedule import Occupancy
from .classification import BagClasses, JobClasses
from .large_jobs import LargePlacement
from .milp import ConfigurationSolution
from .params import DerivedConstants
from .patterns import JobTable

__all__ = ["SmallPlacementDiagnostics", "place_small_jobs"]

_size = attrgetter("size")


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

    def place_least_loaded(job: Job) -> None:
        """The defensive path: the least-loaded machine without the bag."""
        machine = occupancy.least_loaded(job.bag)
        if machine is None:
            raise AlgorithmError(
                f"no conflict-free machine available for small job {job.id} "
                f"of bag {job.bag}"
            )
        occupancy.assign(job, machine)

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
    group_of_machine: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    for machine in range(instance.num_machines):
        rounded = math.ceil(grouping_height[machine] / eps - 1e-9) * eps
        group_key = int(round(rounded / eps))
        group_of_machine[machine] = group_key
        groups.setdefault(group_key, []).append(machine)
    diagnostics.machine_groups = len(groups)

    # ------------------------------------------------------------------
    # C. Non-priority bags: group-bag-LPT across groups, bag-LPT inside.
    # ------------------------------------------------------------------
    # After the transformation a non-priority bag is all small (an original
    # bag) or has no small job (a companion bag); the table's counts say which,
    # so only a bag of both kinds is filtered job by job.
    small_count: dict[int, int] = {}
    for small in table.small:
        small_count[small.bag] = small_count.get(small.bag, 0) + small.count
    non_priority_bags: list[list[Job]] = []
    for bag, members in instance.bags().items():
        count = small_count.get(bag, 0)
        if not count or bag in bag_classes.priority:
            continue
        if count == len(members):
            non_priority_bags.append(list(members))
        else:
            non_priority_bags.append(
                [job for job in members if job.id in job_classes.small]
            )
    # Largest bags (by area) first gives group-bag-LPT the most freedom; each
    # area is summed in instance order.
    non_priority_bags.sort(key=lambda jobs: -sum(map(_size, jobs)))

    if non_priority_bags:
        group_sizes = {group: len(machines) for group, machines in groups.items()}
        group_avg = {
            group: sum(grouping_height[m] for m in machines) / len(machines)
            for group, machines in groups.items()
        }
        routed = group_bag_lpt(group_sizes, group_avg, non_priority_bags)
        for group, bag_chunks in routed.bags_per_group.items():
            if not any(bag_chunks):
                continue
            machines = groups[group]
            machine_of = bag_lpt(
                machines,
                {machine: grouping_height[machine] for machine in machines},
                bag_chunks,
            ).assignment
            # Each chunk is in (size descending, id) order already, the order
            # bag-LPT places it in, so this walk follows its placements.
            for chunk in bag_chunks:
                for job in chunk:
                    machine = machine_of[job.id]
                    if job.bag in bags[machine]:
                        # Should not happen (non-priority small bags are fresh
                        # on every machine); defensively reroute.
                        place_least_loaded(job)
                    else:
                        occupancy.assign(job, machine)
                diagnostics.non_priority_jobs += len(chunk)

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
        modified_bags: list[list[Job]] = []
        slot_records: dict[int, tuple[int, float]] = {}  # synthetic id -> (bag, height)
        for bag, allocation in sorted(bag_entries):
            entries: list[Job] = [
                instance.job(job_id) for job_id in allocation.full_job_ids
            ]
            num_full = len(entries)
            num_merged = max(0, len(machines) - num_full)
            if allocation.fractional_area > 1e-12 and num_merged > 0:
                height = allocation.fractional_area / num_merged
                height = max(height, 0.0)
                rounded_height = max(height, slot_threshold)
                for _ in range(num_merged):
                    slot_job = Job(id=synthetic_id, size=rounded_height, bag=bag)
                    slot_records[synthetic_id] = (bag, rounded_height)
                    synthetic_id += 1
                    entries.append(slot_job)
                    diagnostics.merged_slots += 1
            if entries:
                modified_bags.append(entries)
        if not modified_bags:
            continue
        result = bag_lpt(
            machines,
            {machine: loads[machine] for machine in machines},
            modified_bags,
        )
        for job_id, machine in result.assignment.items():
            machine = int(machine)
            if job_id in slot_records:
                bag, _ = slot_records[job_id]
                slots_by_bag.setdefault(bag, []).append(machine)
                continue
            job = instance.job(job_id)
            if job.bag in bags[machine]:
                place_least_loaded(job)
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
                place_least_loaded(job)
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
                    place_least_loaded(instance.job(job_id))
                    diagnostics.priority_fallback_jobs += 1

    return diagnostics
