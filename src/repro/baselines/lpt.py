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
(:mod:`repro.eptas.small_jobs`).  They take each bag as its job ids and sizes,
largest job first (:data:`LptBag`, ordered by :func:`lpt_sorted`), so neither
reads a :class:`~repro.core.job.Job` nor sorts a bag again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from ..core.errors import AlgorithmError
from ..core.instance import Instance
from ..core.result import SolverResult, timed_solver_result
from .list_scheduling import greedy_assign, lpt_order

__all__ = [
    "lpt_schedule",
    "lpt_sorted",
    "bag_lpt",
    "group_bag_lpt",
    "BagLptResult",
    "GroupAssignment",
    "LptBag",
]


def lpt_schedule(instance: Instance) -> SolverResult:
    """Bag-aware LPT: jobs in non-increasing size order, least-loaded feasible machine."""
    order = lpt_order(instance)
    return timed_solver_result(
        "lpt",
        lambda: greedy_assign(instance, order),
        params={"order": "size-descending"},
    )


#: One bag for :func:`bag_lpt` and :func:`group_bag_lpt`: its job ids and
#: their sizes, both in bag-LPT order (see :func:`lpt_sorted`).
LptBag = tuple[Sequence[int], Sequence[float]]


def lpt_sorted(job_ids: Sequence[int], sizes: Sequence[float]) -> tuple[list[int], list[float]]:
    """A bag's ids and sizes in bag-LPT order: size descending, ties by id.

    Two stable sorts of the positions, by id and then by size with
    ``reverse=True`` (which keeps ties in order), give the order of
    ``sorted(jobs, key=lambda job: (-job.size, job.id))``; the two agree
    because sizes are finite.
    """
    order = sorted(range(len(job_ids)), key=job_ids.__getitem__)
    order.sort(key=sizes.__getitem__, reverse=True)
    return [job_ids[i] for i in order], [sizes[i] for i in order]


# ----------------------------------------------------------------------
# bag-LPT
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class BagLptResult:
    """Result of :func:`bag_lpt`.

    ``machines[i][j]`` is the machine identifier that job ``j`` of
    ``bags[i]`` (the bags as given) was placed on; ``loads`` gives the final
    load per machine identifier.
    """

    bags: tuple[LptBag, ...]
    machines: tuple[list[Hashable], ...]
    loads: dict[Hashable, float]

    @property
    def assignment(self) -> dict[int, Hashable]:
        """``job id -> machine``, bag by bag, each bag in its given order."""
        return {
            job_id: machine
            for (job_ids, _), chosen in zip(self.bags, self.machines)
            for job_id, machine in zip(job_ids, chosen)
        }

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
    bags: Iterable[LptBag],
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
        One :data:`LptBag` per bag, its jobs largest first (ties by id), as
        :func:`lpt_sorted` orders them.  The jobs may come from the same
        instance-bag or be artificial merged jobs (the EPTAS uses both).

    Bags are placed in the given order.  Within a bag the largest job goes to
    the least loaded machine, the second largest to the second least loaded,
    and so on; load ties go to the machine whose ``str`` comes first.  The
    loads live in one array in that label order, so a stable ``argsort``
    ranks the machines, and one fancy-indexed ``+=`` per bag adds each job's
    size to its machine: the machines of a bag are distinct, so every load
    receives the same float additions, in the same order, as job-by-job
    bookkeeping gives it.
    """
    bag_list = tuple(bags)
    machine_list = list(machines)
    if not machine_list:
        if any(len(job_ids) for job_ids, _ in bag_list):
            raise AlgorithmError("bag-LPT called with jobs but no machines")
        return BagLptResult(bags=bag_list, machines=tuple([] for _ in bag_list), loads={})
    by_label = sorted(machine_list, key=str)
    labels = np.fromiter(by_label, dtype=object, count=len(by_label))
    loads = np.array([float(initial_loads.get(machine, 0.0)) for machine in by_label])
    ranked = loads.argsort
    placed: list[list[Hashable]] = []
    for bag_index, (job_ids, sizes) in enumerate(bag_list):
        count = len(job_ids)
        if count > len(machine_list):
            raise AlgorithmError(
                f"bag-LPT: bag #{bag_index} has {count} jobs but the group "
                f"only has {len(machine_list)} machines"
            )
        chosen = ranked(kind="stable")[:count]
        loads[chosen] += sizes
        placed.append(labels[chosen].tolist())
    final = dict(zip(by_label, loads.tolist()))
    return BagLptResult(
        bags=bag_list,
        machines=tuple(placed),
        loads={machine: final[machine] for machine in machine_list},
    )


# ----------------------------------------------------------------------
# group-bag-LPT
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class GroupAssignment:
    """Result of :func:`group_bag_lpt`.

    ``bags_per_group[g]`` maps each bag with jobs routed to group ``g`` to
    those jobs: slices of the bag's ids and sizes, so still in bag-LPT
    order, with bags in routing order.  ``area_per_group[g]`` is the total
    processing time routed to group ``g``.
    """

    bags_per_group: dict[int, dict[Hashable, LptBag]]
    area_per_group: dict[int, float]


def group_bag_lpt(
    group_sizes: Mapping[int, int],
    group_average_loads: Mapping[int, float],
    bags: Mapping[Hashable, LptBag],
) -> GroupAssignment:
    """The paper's group-bag-LPT: route bag jobs to machine groups.

    For every bag (in the mapping's order), with its jobs largest first:
    sort the groups by non-decreasing *current* average load (ties by group
    index), then give the first ``|M_1|`` jobs to the least loaded group, the
    next ``|M_2|`` jobs to the next group, and so on.  Average loads are
    updated after each bag, each by the chunk's area (Python ``sum`` of its
    sizes in order) over the group's size, so later bags see the area
    already routed.

    Parameters
    ----------
    group_sizes:
        ``group index -> number of machines in the group``.
    group_average_loads:
        ``group index -> current average machine load of the group``.
    bags:
        ``bag -> its jobs`` as an :data:`LptBag` in :func:`lpt_sorted` order
        (each bag must fit into the total machine count).

    Returns
    -------
    GroupAssignment
        Which jobs go to which group, keeping the per-bag structure, still in
        bag-LPT order, so that bag-LPT can be run inside each group
        afterwards.
    """
    total_capacity = sum(group_sizes.values())
    averages: dict[int, float] = {
        group: float(group_average_loads.get(group, 0.0)) for group in group_sizes
    }
    bags_per_group: dict[int, dict[Hashable, LptBag]] = {group: {} for group in group_sizes}
    area_per_group: dict[int, float] = {group: 0.0 for group in group_sizes}

    def by_average(group: int) -> tuple[float, int]:
        return averages[group], group

    for bag, (job_ids, sizes) in bags.items():
        count = len(job_ids)
        if count > total_capacity:
            raise AlgorithmError(
                f"group-bag-LPT: bag {bag!r} has {count} jobs but all "
                f"groups together only have {total_capacity} machines"
            )
        cursor = 0
        for group in sorted(group_sizes, key=by_average):
            if cursor >= count:
                break
            end = cursor + min(group_sizes[group], count - cursor)
            chunk_sizes = sizes[cursor:end]
            bags_per_group[group][bag] = (job_ids[cursor:end], chunk_sizes)
            cursor = end
            chunk_area = sum(chunk_sizes)
            area_per_group[group] += chunk_area
            averages[group] += chunk_area / group_sizes[group]
    return GroupAssignment(bags_per_group=bags_per_group, area_per_group=area_per_group)
