"""Coloring-based scheduling baseline.

For conflict graphs that can be colored optimally in polynomial time, the
classical result of Bodlaender, Jansen and Woeginger gives a
2-approximation for scheduling with incompatibilities.  Bag constraints are
the special case of cluster conflict graphs, which are trivially optimally
colorable (color the jobs of each bag ``0, 1, 2, …``).  The scheduler below
follows that scheme: it processes color classes one after the other (largest
area first) and distributes each class LPT-style over the machines, always
respecting previously placed bags — that is, it runs
:func:`~repro.baselines.list_scheduling.greedy_assign` on the jobs in that
order.  Jobs of one color class never conflict with each other, so each class
spreads freely; conflicts with earlier classes are avoided by the
feasible-machine rule, which always succeeds because a bag's jobs occupy
pairwise different classes.
"""

from __future__ import annotations

from ..core.instance import Instance
from ..core.result import SolverResult, timed_solver_result
from ..core.schedule import Schedule
from .list_scheduling import greedy_assign

__all__ = ["coloring_schedule"]


def greedy_clique_coloring(instance: Instance) -> dict[int, int]:
    """Color the conflict graph of a bag-constrained instance optimally.

    Because the conflict graph is a cluster graph, an optimal coloring simply
    assigns color ``0, 1, 2, …`` to the jobs of each bag independently; the
    chromatic number equals the size of the largest bag.  The returned
    mapping is ``job id -> color``.  Colors can be interpreted as "machine
    classes": jobs of the same color never conflict.
    """
    coloring: dict[int, int] = {}
    for _, members in instance.bags().items():
        # Color larger jobs first so color classes are balanced by area,
        # which helps the coloring-based scheduling baseline.
        for color, job in enumerate(sorted(members, key=lambda j: -j.size)):
            coloring[job.id] = color
    return coloring


def color_classes(coloring: dict[int, int]) -> dict[int, list[int]]:
    """Group a coloring into ``color -> sorted job ids``."""
    classes: dict[int, list[int]] = {}
    for job_id, color in coloring.items():
        classes.setdefault(color, []).append(job_id)
    return {color: sorted(ids) for color, ids in sorted(classes.items())}


def coloring_schedule(instance: Instance) -> SolverResult:
    """Schedule via an optimal coloring of the cluster conflict graph."""

    def build() -> Schedule:
        classes = color_classes(greedy_clique_coloring(instance))

        # Largest-area color class first: this mirrors the Bodlaender et al.
        # analysis where each class is spread as evenly as possible before
        # smaller classes fill the gaps.
        def class_area(job_ids: list[int]) -> float:
            return sum(instance.job(job_id).size for job_id in job_ids)

        ordered_classes = sorted(
            classes.items(), key=lambda item: (-class_area(item[1]), item[0])
        )
        order = [
            job
            for _, job_ids in ordered_classes
            for job in sorted(
                (instance.job(job_id) for job_id in job_ids),
                key=lambda job: (-job.size, job.id),
            )
        ]
        return greedy_assign(instance, order)

    return timed_solver_result("coloring", build, params={})
