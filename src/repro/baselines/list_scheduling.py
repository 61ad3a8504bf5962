"""Greedy list scheduling with bag-awareness.

The classical Graham list-scheduling rule ("next job goes to the least loaded
machine") extends naturally to bag constraints: the next job goes to the
least loaded machine *that carries no job of its bag*.  Because no bag has
more jobs than machines, such a machine always exists, so the algorithm never
gets stuck.  For conflict graphs that can be colored in polynomial time
(cluster graphs can), this greedy strategy is a 2-approximation
[Bodlaender, Jansen, Woeginger 1994]; it is the upper bound used to seed the
EPTAS's dual-approximation binary search.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from ..core.errors import InvalidInstanceError
from ..core.instance import Instance
from ..core.job import Job
from ..core.result import SolverResult, timed_solver_result
from ..core.schedule import Occupancy, Schedule

__all__ = ["greedy_assign", "greedy_schedule", "first_fit_schedule", "lpt_order"]


def lpt_order(instance: Instance) -> list[Job]:
    """The instance's jobs by non-increasing size, ties by ascending id.

    This is ``sorted(instance.jobs, key=lambda job: (-job.size, job.id))``,
    the order that turns :func:`greedy_assign` into bag-aware LPT, computed
    by one stable ``np.lexsort`` over the instance's id and size arrays.
    """
    order = np.lexsort((instance.row_ids, -instance.sizes))
    return list(map(instance.jobs.__getitem__, order.tolist()))


def greedy_assign(
    instance: Instance,
    order: Sequence[Job] | None = None,
    *,
    schedule: Schedule | None = None,
) -> Schedule:
    """Assign jobs in the given order to the least-loaded conflict-free machine.

    Parameters
    ----------
    instance:
        The instance to schedule.
    order:
        Job processing order; defaults to the instance order.  Passing a
        size-descending order turns this into bag-aware LPT.
    schedule:
        An existing (possibly partial) schedule to extend in place.  Machine
        loads and bag occupancies of already-placed jobs are respected.
        A new empty schedule is created when omitted.

    Returns
    -------
    Schedule
        The extended schedule.  Raises :class:`InvalidInstanceError` when a
        job has no conflict-free machine (only possible if a bag has more
        members than machines).

    The machines sit in a heap of ``(load, machine)`` with exactly one entry
    per machine, always current: a load changes only when a job is placed,
    and the placing step re-enters that machine with its new load.  So the
    least-loaded machine is ``heap[0]``, and a job whose bag it holds pops
    machines until one is free, then pushes the others back.
    """
    jobs = list(order) if order is not None else list(instance.jobs)
    occupancy = Occupancy(schedule if schedule is not None else Schedule(instance))
    loads, bags, placed = occupancy.loads, occupancy.bags, occupancy.assignment

    heap: list[tuple[float, int]] = [(load, machine) for machine, load in enumerate(loads)]
    heapq.heapify(heap)

    for job in jobs:
        if job.id in placed:
            continue
        if heap and job.bag not in bags[heap[0][1]]:
            machine = heap[0][1]
            occupancy.assign(job, machine)
            heapq.heapreplace(heap, (loads[machine], machine))
            continue
        stash: list[tuple[float, int]] = []
        chosen: int | None = None
        while heap:
            entry = heapq.heappop(heap)
            if job.bag in bags[entry[1]]:
                stash.append(entry)
                continue
            chosen = entry[1]
            break
        for entry in stash:
            heapq.heappush(heap, entry)
        if chosen is None:
            raise InvalidInstanceError(
                f"no conflict-free machine for job {job.id} of bag {job.bag}; "
                f"bag has more jobs than machines"
            )
        occupancy.assign(job, chosen)
        heapq.heappush(heap, (loads[chosen], chosen))

    return occupancy.schedule


def greedy_schedule(
    instance: Instance, *, order: Sequence[Job] | None = None
) -> SolverResult:
    """Bag-aware Graham list scheduling (instance order by default)."""
    return timed_solver_result(
        "greedy-list",
        lambda: greedy_assign(instance, order),
        params={"order": "input" if order is None else "custom"},
    )


def first_fit_schedule(instance: Instance, *, capacity: float | None = None) -> SolverResult:
    """First-fit: place each job on the lowest-index conflict-free machine.

    With ``capacity`` set, a machine is only eligible while its load plus the
    job stays within the capacity; jobs that fit nowhere fall back to the
    least-loaded conflict-free machine.  First-fit is intentionally weaker
    than :func:`greedy_schedule` — it is the "naive placement" that the
    Figure-1 experiment (E1) contrasts against bag-aware algorithms.
    """

    def build() -> Schedule:
        occupancy = Occupancy(Schedule(instance))
        loads, bags = occupancy.loads, occupancy.bags
        for job in instance.jobs:
            machine = next(
                (
                    machine
                    for machine in range(instance.num_machines)
                    if job.bag not in bags[machine]
                    and (capacity is None or loads[machine] + job.size <= capacity)
                ),
                None,
            )
            if machine is None:
                # Fall back to the least-loaded conflict-free machine.
                machine = occupancy.least_loaded(job.bag)
            if machine is None:
                raise InvalidInstanceError(
                    f"no conflict-free machine for job {job.id} of bag {job.bag}"
                )
            occupancy.assign(job, machine)
        return occupancy.schedule

    return timed_solver_result(
        "first-fit",
        build,
        params={"capacity": capacity},
    )


def upper_bound_makespan(instance: Instance) -> float:
    """A quick feasible makespan (bag-aware LPT, ties by id), used to bracket
    searches: the makespan of :func:`~repro.baselines.lpt.lpt_schedule`."""
    return greedy_assign(instance, lpt_order(instance)).makespan()
