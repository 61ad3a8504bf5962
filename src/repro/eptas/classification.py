"""Job and bag classification (Section 2.1 of the paper).

Given the scaled-and-rounded instance (guessed optimum ``1``):

* Lemma 1 picks an exponent ``k <= 1/eps**2`` such that the jobs whose size
  falls in the window ``[eps**(k+1), eps**k)`` have total area at most
  ``eps**2 * m``.  Those are the *medium* jobs; jobs at least ``eps**k`` are
  *large*; the rest are *small*.
* A bag is a *large bag* when it holds at least ``eps * m`` medium-or-large
  jobs; otherwise it is a *small bag*.
* Definition 2 fixes, for every large size ``s``, the ordering ``o_s`` of
  bags by the cardinality of their size-restricted bag ``B_l^s``; the first
  ``b'`` bags per size — plus every large bag — are *priority* bags, the rest
  are *non-priority* bags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..core.instance import Instance
from .params import ConstantsMode, DerivedConstants, derive_constants, normalise_eps

__all__ = [
    "JobClasses",
    "BagClasses",
    "compute_k",
    "classify_jobs",
    "classify_bags",
    "SIZE_TOL",
]

#: Relative tolerance used when comparing (rounded) job sizes for equality.
SIZE_TOL = 1e-9


def compute_k(instance: Instance, eps: float) -> int:
    """Lemma 1: find ``k`` with little work in the window ``[eps^{k+1}, eps^k)``.

    Returns the smallest ``k in {1, ..., ceil(1/eps**2)}`` whose window mass
    is at most ``eps**2 * m``.  When the guessed optimum is too small the
    total work can exceed ``m`` and no window may qualify; in that case the
    window with minimum mass is returned (the driver's binary search will
    reject such guesses through MILP infeasibility anyway, but classification
    stays well defined).
    """
    eps = normalise_eps(eps)
    num_windows = max(1, int(math.ceil(1.0 / (eps * eps) - 1e-9)))
    budget = eps * eps * instance.num_machines
    best_k = 1
    best_mass = math.inf
    sizes = instance.sizes
    for k in range(1, num_windows + 1):
        upper = eps**k
        lower = eps ** (k + 1)
        in_window = (sizes >= lower - SIZE_TOL) & (sizes < upper - SIZE_TOL * upper)
        # Built-in ``sum`` over the window's sizes in job order, so the float
        # result is the same as summing job by job.
        mass = sum(sizes[in_window].tolist())
        if mass <= budget + 1e-12:
            return k
        if mass < best_mass:
            best_mass = mass
            best_k = k
    return best_k


@dataclass(frozen=True, slots=True)
class JobClasses:
    """Partition of the jobs into large / medium / small (Lemma 1)."""

    eps: float
    k: int
    large_threshold: float
    medium_threshold: float
    large: frozenset[int]
    medium: frozenset[int]
    small: frozenset[int]
    medium_or_large: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "medium_or_large", self.large | self.medium)

    def summary(self) -> dict[str, float | int]:
        return {
            "k": self.k,
            "large_threshold": self.large_threshold,
            "medium_threshold": self.medium_threshold,
            "num_large": len(self.large),
            "num_medium": len(self.medium),
            "num_small": len(self.small),
        }


def classify_jobs(instance: Instance, eps: float, *, k: int | None = None) -> JobClasses:
    """Classify every job of a (rounded, scaled) instance as large/medium/small."""
    eps = normalise_eps(eps)
    if k is None:
        k = compute_k(instance, eps)
    large_threshold = eps**k
    medium_threshold = eps ** (k + 1)
    ids = instance.row_ids
    sizes = instance.sizes
    is_large = sizes >= large_threshold - SIZE_TOL
    is_medium = ~is_large & (sizes >= medium_threshold - SIZE_TOL)
    return JobClasses(
        eps=eps,
        k=k,
        large_threshold=large_threshold,
        medium_threshold=medium_threshold,
        large=frozenset(ids[is_large].tolist()),
        medium=frozenset(ids[is_medium].tolist()),
        small=frozenset(ids[~(is_large | is_medium)].tolist()),
    )


@dataclass(frozen=True, slots=True)
class BagClasses:
    """Priority / non-priority split of the bags (Definition 2)."""

    priority: frozenset[int]
    non_priority: frozenset[int]
    large_bags: frozenset[int]
    # Per large size: bag indices ordered by decreasing |B_l^s| (the paper's o_s).
    size_orderings: Mapping[float, tuple[int, ...]]
    b_prime: int
    constants: DerivedConstants

    def summary(self) -> dict[str, int]:
        return {
            "num_priority": len(self.priority),
            "num_non_priority": len(self.non_priority),
            "num_large_bags": len(self.large_bags),
            "b_prime": self.b_prime,
        }


def classify_bags(
    instance: Instance,
    job_classes: JobClasses,
    *,
    mode: ConstantsMode = ConstantsMode.PRACTICAL,
    practical_priority_cap: int = 3,
) -> BagClasses:
    """Determine large bags, the per-size orderings and the priority bags.

    The derived constants (``q``, ``b'``) use the *instance-derived* number
    of distinct large and medium sizes, which never exceeds the worst-case
    geometric count used in the proofs.
    """
    eps = job_classes.eps
    job = instance.job
    large_sizes = sorted({job(j).size for j in job_classes.large})
    medium_sizes = sorted({job(j).size for j in job_classes.medium})

    constants = derive_constants(
        eps,
        job_classes.k,
        num_large_sizes=max(1, len(large_sizes)),
        num_medium_sizes=max(1, len(medium_sizes)),
        mode=mode,
        practical_priority_cap=practical_priority_cap,
        num_machines=instance.num_machines,
    )
    b_prime = constants.priority_bags_per_size

    # Large bags: at least eps * m medium-or-large jobs, so none without them.
    large_bag_threshold = eps * instance.num_machines
    heavy_ids = job_classes.medium_or_large
    large_bags: set[int] = set()
    if heavy_ids:
        for bag, members in instance.bags().items():
            heavy = sum(1 for member in members if member.id in heavy_ids)
            if heavy >= large_bag_threshold - SIZE_TOL:
                large_bags.add(bag)

    # Per-size orderings o_s over bags actually containing jobs of size s:
    # bags by decreasing |B_l^s|, ties by index.
    sizes = instance.sizes
    bags = instance.job_bags
    size_orderings: dict[float, tuple[int, ...]] = {}
    # The paper makes every large bag a priority bag so that non-priority bags
    # are provably small (needed by the worst-case proof of Lemma 3).  In
    # PRACTICAL mode this rule is dropped: when eps*m is tiny, almost every
    # bag would qualify and the pattern MILP would explode; the repair stages
    # (Lemmas 3, 4, 7, 11 + defensive fallbacks) handle the resulting
    # conflicts, and every returned schedule is validated (see DESIGN.md §4).
    priority: set[int] = set(large_bags) if mode is ConstantsMode.THEORY else set()
    for size in large_sizes:
        # Sizes equal up to SIZE_TOL, relative to the larger of 1 and either size.
        matches = np.abs(sizes - size) <= SIZE_TOL * np.maximum(
            np.maximum(1.0, np.abs(sizes)), abs(size)
        )
        bag_ids, counts = np.unique(bags[matches], return_counts=True)
        ordering = tuple(bag_ids[np.lexsort((bag_ids, -counts))].tolist())
        size_orderings[size] = ordering
        priority.update(ordering[:b_prime])

    non_priority = set(instance.bag_indices) - priority
    return BagClasses(
        priority=frozenset(priority),
        non_priority=frozenset(non_priority),
        large_bags=frozenset(large_bags),
        size_orderings=size_orderings,
        b_prime=b_prime,
        constants=constants,
    )
