"""Combinatorial and LP-based lower bounds on the optimal makespan.

The bounds implemented here are valid for machine scheduling with
bag-constraints on identical machines (``P | bag | C_max``); most of them are
also the classical ``P || C_max`` bounds, which remain valid because adding
constraints can only increase the optimum.

* :func:`area_lower_bound` — total work divided by the number of machines.
* :func:`max_job_lower_bound` — the largest single processing time.
* :func:`pairwise_lower_bound` — the pigeonhole bound: among the ``t*m + 1``
  largest jobs some machine receives at least ``t + 1`` of them.
* :func:`bag_cardinality_lower_bound` — a bag-specific bound: when a bag has
  exactly ``m`` jobs every machine hosts one of them, so any extra job stacks
  on top of some bag job.
* :func:`lp_relaxation_lower_bound` — the LP relaxation of the exact
  assignment MILP (:func:`repro.exact.build_assignment_model`), solved by the
  ``lp`` backend through the solver service; intended for small instances
  and for cross-checking the combinatorial bounds.
* :func:`best_lower_bound` / :func:`combined_lower_bound` — the maximum of
  the cheap combinatorial bounds (and optionally the LP bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.instance import Instance
from ..exact import build_assignment_model
from ..solver import get_solver_service

__all__ = [
    "LowerBoundReport",
    "area_lower_bound",
    "bag_cardinality_lower_bound",
    "best_lower_bound",
    "combined_lower_bound",
    "lp_relaxation_lower_bound",
    "max_job_lower_bound",
    "pairwise_lower_bound",
]


def area_lower_bound(instance: Instance) -> float:
    """Total processing time divided by the number of machines.

    Every schedule distributes the total work over ``m`` machines, so the
    busiest machine carries at least the average load.
    """
    if instance.num_machines == 0:
        return float("inf")
    return instance.total_work / instance.num_machines


def max_job_lower_bound(instance: Instance) -> float:
    """The largest processing time: some machine must run that job."""
    return instance.max_job_size


def pairwise_lower_bound(instance: Instance, *, max_level: int = 3) -> float:
    """Pigeonhole bound over the largest jobs.

    For every ``t >= 1`` with ``t*m + 1 <= n``: among the ``t*m + 1`` largest
    jobs, some machine receives at least ``t + 1`` of them, hence the optimum
    is at least the sum of the ``t + 1`` *smallest* jobs among those
    ``t*m + 1`` largest.  For ``t = 1`` this is the classical
    ``p_(m) + p_(m+1)`` bound.  ``max_level`` caps ``t`` (the bound rarely
    improves past small ``t``).
    """
    sizes = np.sort(instance.sizes)[::-1]
    n = sizes.size
    m = instance.num_machines
    best = 0.0
    for t in range(1, max_level + 1):
        top = t * m + 1
        if top > n:
            break
        # The t+1 smallest among the `top` largest jobs are at positions
        # top-1, top-2, ..., top-1-t of the descending-sorted array.
        best = max(best, float(sizes[top - 1 - t : top].sum()))
    return best


def bag_cardinality_lower_bound(instance: Instance) -> float:
    """Bag-specific bound exploiting *full* bags.

    If some bag ``B`` contains exactly ``m`` jobs, then in every feasible
    schedule each machine hosts exactly one job of ``B``.  Consequently, if
    the instance contains any job outside ``B``, that job shares a machine
    with some job of ``B``, so the optimum is at least
    ``min(p_j : j in B) + min(p_j : j not in B)``.

    If some bag contains more than ``m`` jobs, no feasible schedule exists
    and the bound is ``+inf``.

    The smallest size outside ``B`` is the smallest of the other bags'
    minima, so each bag's minimum is computed once: linear in the jobs.
    """
    m = instance.num_machines
    best = 0.0
    bag_members = instance.bags()
    if any(len(members) > m for members in bag_members.values()):
        return float("inf")
    full = [bag for bag, members in bag_members.items() if len(members) == m]
    if not full or instance.num_jobs <= m:
        return best
    minima = {
        bag: min(job.size for job in members) for bag, members in bag_members.items()
    }
    # The two smallest minima: a full bag holding the smallest takes the other.
    (first_bag, first), *rest = sorted(minima.items(), key=lambda item: item[1])
    second = rest[0][1] if rest else 0.0
    for bag in full:
        best = max(best, minima[bag] + (second if bag == first_bag else first))
    return best


def combined_lower_bound(instance: Instance) -> float:
    """Maximum of the cheap combinatorial bounds (no LP solve)."""
    return max(
        area_lower_bound(instance),
        max_job_lower_bound(instance),
        pairwise_lower_bound(instance),
        bag_cardinality_lower_bound(instance),
    )


def lp_relaxation_lower_bound(instance: Instance) -> float:
    """LP relaxation of the machine-assignment formulation.

    The exact assignment MILP without symmetry breaking, integrality
    dropped: ``x[j, i] in [0, 1]`` is the fraction of job ``j`` placed on
    machine ``i`` and ``T`` the makespan; every job fully assigned,
    per-machine load at most ``T``, and at most one (fractional) job of each
    bag per machine.  The model has ``n*m + 1`` variables and is only
    intended for small to medium instances; the combinatorial bounds are
    used by default in the solvers.
    """
    if instance.num_jobs == 0:
        return 0.0
    model = build_assignment_model(instance, symmetry_breaking=False)
    solution = get_solver_service().solve(model, spec="lp")
    # The LP relaxation is always feasible when every bag fits on the
    # machines; otherwise mirror the combinatorial bound's +inf.
    return solution.objective if solution.is_feasible else float("inf")


@dataclass(frozen=True, slots=True)
class LowerBoundReport:
    """All individual bounds for an instance plus the best one."""

    area: float
    max_job: float
    pairwise: float
    bag_cardinality: float
    lp_relaxation: float | None
    best: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "area": self.area,
            "max_job": self.max_job,
            "pairwise": self.pairwise,
            "bag_cardinality": self.bag_cardinality,
            "lp_relaxation": self.lp_relaxation,
            "best": self.best,
        }


def best_lower_bound(instance: Instance, *, use_lp: bool = False) -> LowerBoundReport:
    """Compute all lower bounds and return them together with the maximum.

    Parameters
    ----------
    use_lp:
        Also solve the LP relaxation (costlier; off by default).  The LP
        bound dominates the area and max-job bounds but not necessarily the
        pigeonhole bound, so the maximum of all of them is reported.
    """
    area = area_lower_bound(instance)
    max_job = max_job_lower_bound(instance)
    pairwise = pairwise_lower_bound(instance)
    bag_card = bag_cardinality_lower_bound(instance)
    lp_bound: float | None = None
    candidates = [area, max_job, pairwise, bag_card]
    if use_lp:
        lp_bound = lp_relaxation_lower_bound(instance)
        candidates.append(lp_bound)
    best = max(candidates) if candidates else 0.0
    if math.isinf(best):
        best = float("inf")
    return LowerBoundReport(
        area=area,
        max_job=max_job,
        pairwise=pairwise,
        bag_cardinality=bag_card,
        lp_relaxation=lp_bound,
        best=best,
    )
