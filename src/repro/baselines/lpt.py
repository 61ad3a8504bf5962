"""The LPT family: classical LPT, bag-LPT and group-bag-LPT (paper Section 4).

* :func:`lpt_schedule` — bag-aware longest-processing-time-first list
  scheduling (Graham's LPT with the conflict-free-machine rule).
* :func:`bag_lpt` — the paper's *bag-LPT*: given a group of machines and a
  collection of bags whose jobs may run on any machine of the group, process
  bags one at a time; within a bag, the largest job goes to the least loaded
  machine, the second largest to the second least loaded machine, and so on.
  Lemma 8 shows that on machines of equal height the loads never diverge by
  more than the largest job size.
* :func:`group_bag_lpt` — the paper's *group-bag-LPT*: distribute the jobs of
  each bag over machine *groups* (sorted by average load); the largest jobs
  of a bag go to the least loaded group.  Lemma 9 bounds the area each group
  receives.

The latter two are the building blocks the EPTAS uses to place small jobs
(:mod:`repro.eptas.small_jobs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Hashable, Mapping, Sequence

from ..core.errors import AlgorithmError
from ..core.instance import Instance
from ..core.job import Job
from ..core.result import SolverResult, timed_solver_result
from .list_scheduling import greedy_assign, lpt_order

__all__ = [
    "lpt_schedule",
    "bag_lpt",
    "group_bag_lpt",
    "BagLptResult",
    "GroupAssignment",
]


def lpt_schedule(instance: Instance) -> SolverResult:
    """Bag-aware LPT: jobs in non-increasing size order, least-loaded feasible machine."""
    order = lpt_order(instance)
    return timed_solver_result(
        "lpt",
        lambda: greedy_assign(instance, order),
        params={"order": "size-descending"},
    )


_size = attrgetter("size")
_id = attrgetter("id")


def _by_size_then_id(jobs: Sequence[Job]) -> list[Job]:
    """``sorted(jobs, key=lambda job: (-job.size, job.id))`` as two stable
    sorts, by id and then by size with ``reverse=True`` (which keeps ties in
    order); the two agree because sizes are finite."""
    ordered = sorted(jobs, key=_id)
    ordered.sort(key=_size, reverse=True)
    return ordered


# ----------------------------------------------------------------------
# bag-LPT
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class BagLptResult:
    """Result of :func:`bag_lpt`.

    ``assignment`` maps job id to the machine identifier it was placed on;
    ``loads`` gives the final load per machine identifier.
    """

    assignment: dict[int, Hashable]
    loads: dict[Hashable, float]

    def max_load(self) -> float:
        return max(self.loads.values()) if self.loads else 0.0

    def min_load(self) -> float:
        return min(self.loads.values()) if self.loads else 0.0

    def spread(self) -> float:
        """Difference between the highest and lowest machine load."""
        return self.max_load() - self.min_load() if self.loads else 0.0


def bag_lpt(
    machines: Sequence[Hashable],
    initial_loads: Mapping[Hashable, float],
    bags: Sequence[Sequence[Job]],
) -> BagLptResult:
    """The paper's bag-LPT on a group of machines.

    Every bag must have at most ``len(machines)`` jobs; the algorithm
    implicitly pads bags with zero-size dummy jobs (they are simply not
    assigned).  Jobs of one bag end up on pairwise distinct machines, so the
    result never violates the bag constraint *within* the given bags.

    Parameters
    ----------
    machines:
        Identifiers of the machines in the group.
    initial_loads:
        Current load of each machine (missing machines default to ``0``).
    bags:
        One sequence of jobs per bag.  The jobs may come from the same
        instance-bag or be artificial merged jobs (the EPTAS uses both).
    """
    machine_list = list(machines)
    if not machine_list:
        if any(len(bag) for bag in bags):
            raise AlgorithmError("bag-LPT called with jobs but no machines")
        return BagLptResult(assignment={}, loads={})
    loads: dict[Hashable, float] = {
        machine: float(initial_loads.get(machine, 0.0)) for machine in machine_list
    }
    assignment: dict[int, Hashable] = {}
    # Ties in load are broken by the machine's string form.  Python's sort is
    # stable, so sorting this label order by load alone gives that order.
    by_label = sorted(machine_list, key=str)
    for bag_index, bag in enumerate(bags):
        if len(bag) > len(machine_list):
            raise AlgorithmError(
                f"bag-LPT: bag #{bag_index} has {len(bag)} jobs but the group "
                f"only has {len(machine_list)} machines"
            )
        # Largest job onto least loaded machine, 2nd largest onto 2nd least
        # loaded, and so on (ties broken deterministically by identifier).
        sorted_jobs = _by_size_then_id(bag)
        sorted_machines = sorted(by_label, key=loads.__getitem__)
        for job, machine in zip(sorted_jobs, sorted_machines):
            assignment[job.id] = machine
            loads[machine] += job.size
    return BagLptResult(assignment=assignment, loads=loads)


# ----------------------------------------------------------------------
# group-bag-LPT
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class GroupAssignment:
    """Result of :func:`group_bag_lpt`.

    ``jobs_per_group[g]`` lists, per bag, the jobs of that bag routed to
    group ``g`` (flattened); ``area_per_group[g]`` is the total processing
    time routed to group ``g``.
    """

    jobs_per_group: dict[int, list[Job]]
    bags_per_group: dict[int, list[list[Job]]]
    area_per_group: dict[int, float]


def group_bag_lpt(
    group_sizes: Mapping[int, int],
    group_average_loads: Mapping[int, float],
    bags: Sequence[Sequence[Job]],
) -> GroupAssignment:
    """The paper's group-bag-LPT: route bag jobs to machine groups.

    For every bag (in the given order): sort its jobs by non-increasing
    size and the groups by non-decreasing *current* average load, then give
    the first ``|M_1|`` jobs to the least loaded group, the next ``|M_2|``
    jobs to the next group, and so on.  Average loads are updated after each
    bag so later bags see the area already routed.

    Parameters
    ----------
    group_sizes:
        ``group index -> number of machines in the group``.
    group_average_loads:
        ``group index -> current average machine load of the group``.
    bags:
        Jobs of each bag (each bag must fit into the total machine count).

    Returns
    -------
    GroupAssignment
        Which jobs go to which group, keeping the per-bag structure so that
        bag-LPT can be run inside each group afterwards.
    """
    total_capacity = sum(group_sizes.values())
    averages: dict[int, float] = {
        group: float(group_average_loads.get(group, 0.0)) for group in group_sizes
    }
    jobs_per_group: dict[int, list[Job]] = {group: [] for group in group_sizes}
    bags_per_group: dict[int, list[list[Job]]] = {group: [] for group in group_sizes}
    area_per_group: dict[int, float] = {group: 0.0 for group in group_sizes}

    for bag_index, bag in enumerate(bags):
        if len(bag) > total_capacity:
            raise AlgorithmError(
                f"group-bag-LPT: bag #{bag_index} has {len(bag)} jobs but all "
                f"groups together only have {total_capacity} machines"
            )
        sorted_jobs = _by_size_then_id(bag)
        sorted_groups = sorted(group_sizes, key=lambda group: (averages[group], group))
        cursor = 0
        for group in sorted_groups:
            if cursor >= len(sorted_jobs):
                break
            take = min(group_sizes[group], len(sorted_jobs) - cursor)
            chunk = sorted_jobs[cursor : cursor + take]
            cursor += take
            jobs_per_group[group].extend(chunk)
            bags_per_group[group].append(list(chunk))
            chunk_area = sum(map(_size, chunk))
            area_per_group[group] += chunk_area
            averages[group] += chunk_area / group_sizes[group]
        if cursor < len(sorted_jobs):  # pragma: no cover - guarded above
            raise AlgorithmError("group-bag-LPT failed to place every job of a bag")
    return GroupAssignment(
        jobs_per_group=jobs_per_group,
        bags_per_group=bags_per_group,
        area_per_group=area_per_group,
    )
