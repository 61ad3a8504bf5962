"""Machine configurations ("patterns") for the MILP of Section 3.

A pattern (Definition 3) is a multiset of slots for medium and large jobs.
Each slot is either dedicated to a *priority* bag ``B_l`` and a size ``s``
(at most one slot per priority bag per pattern) or it is a wildcard slot
``B_x^s`` reserved for a job of size ``s`` from *any* non-priority bag
(arbitrarily many wildcard slots are allowed).  A pattern is valid when its
total height is at most the budget ``T = 1 + 2*eps + eps**2`` and it has at
most ``q`` slots.

The enumerator below additionally prunes patterns that could never be used
because a slot type would need more jobs than the instance possesses; this
pruning never removes patterns needed by the Lemma-5 feasibility argument.

The slot types come from the :class:`JobTable` that :func:`group_jobs`
builds once per guess: every job of the transformed instance keyed by its
(bag, size).  The configuration MILP and both placement stages read the same
table, so no later stage groups jobs again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..core.errors import SolverLimitError
from ..core.instance import Instance
from .classification import BagClasses, JobClasses, SIZE_TOL

__all__ = [
    "PatternEntry",
    "Pattern",
    "PatternSet",
    "SmallClass",
    "JobTable",
    "size_key",
    "group_jobs",
    "collect_entry_types",
    "enumerate_patterns",
]

#: Bag marker used for the wildcard ("B_x") slots of non-priority bags.
WILDCARD_BAG = -1


def size_key(size: float) -> float:
    """Canonical float key for a (rounded) size, robust to tiny FP noise."""
    return round(float(size), 12)


@dataclass(frozen=True, slots=True)
class SmallClass:
    """A size-restricted bag of small jobs: bag index, size, member job ids."""

    bag: int
    size: float
    job_ids: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.job_ids)


@dataclass(frozen=True, slots=True)
class JobTable:
    """The jobs of a transformed instance, grouped once per guess.

    Sizes are :func:`size_key` values and job ids ascend within every group.

    * ``priority[(bag, size)]``: the medium and large jobs of a priority bag;
    * ``wildcard[size][bag]``: the medium and large jobs of a non-priority
      bag (after the transformation only companion bags hold them);
    * ``small``: the size-restricted bags of small jobs, sorted by
      (bag, size).  A class's index here is its index in the configuration
      MILP.
    """

    priority: dict[tuple[int, float], tuple[int, ...]]
    wildcard: dict[float, dict[int, tuple[int, ...]]]
    small: tuple[SmallClass, ...]


@dataclass(frozen=True, slots=True)
class PatternEntry:
    """One slot type: a job size plus either a priority bag or the wildcard."""

    size: float
    bag: int  # priority bag index, or WILDCARD_BAG

    @property
    def is_wildcard(self) -> bool:
        return self.bag == WILDCARD_BAG

    def label(self) -> str:
        target = "x" if self.is_wildcard else str(self.bag)
        return f"B^{self.size:g}_{target}"


@dataclass(frozen=True, slots=True)
class Pattern:
    """A valid machine configuration: slot types with multiplicities."""

    entries: tuple[tuple[PatternEntry, int], ...]
    height: float
    num_slots: int

    def count_of(self, entry: PatternEntry) -> int:
        for candidate, count in self.entries:
            if candidate == entry:
                return count
        return 0

    def uses_bag(self, bag: int) -> bool:
        """The paper's ``chi_p(B_l)`` for priority bags (wildcards never count)."""
        return any(
            entry.bag == bag and not entry.is_wildcard for entry, _ in self.entries
        )

    def wildcard_slots(self) -> dict[float, int]:
        """Mapping ``size -> number of wildcard slots of that size``."""
        return {
            entry.size: count for entry, count in self.entries if entry.is_wildcard
        }

    def priority_slots(self) -> dict[tuple[int, float], int]:
        """Mapping ``(priority bag, size) -> slot count`` (0 or 1 per bag)."""
        return {
            (entry.bag, entry.size): count
            for entry, count in self.entries
            if not entry.is_wildcard
        }

    def label(self) -> str:
        if not self.entries:
            return "<empty>"
        return " + ".join(
            f"{count}x{entry.label()}" for entry, count in self.entries
        )


@dataclass(frozen=True, slots=True)
class PatternSet:
    """All enumerated patterns plus the entry-type universe."""

    patterns: tuple[Pattern, ...]
    entry_types: tuple[tuple[PatternEntry, int], ...]  # (entry, available jobs)
    budget: float
    max_slots: int

    def __len__(self) -> int:
        return len(self.patterns)

    def summary(self) -> dict[str, float | int]:
        return {
            "num_patterns": len(self.patterns),
            "num_entry_types": len(self.entry_types),
            "budget": self.budget,
            "max_slots": self.max_slots,
        }


def group_jobs(
    instance: Instance, job_classes: JobClasses, bag_classes: BagClasses
) -> JobTable:
    """Key every job of the transformed instance once, by its :func:`size_key`.

    This is the one grouping of a guess: the entry types, the configuration
    MILP and both placement stages read it.
    """
    small_ids = job_classes.small
    priority_bags = bag_classes.priority
    priority: dict[tuple[int, float], list[int]] = {}
    wildcard: dict[float, dict[int, list[int]]] = {}
    small: dict[tuple[int, float], list[int]] = {}
    for job in instance.jobs:
        size = size_key(job.size)
        if job.id in small_ids:
            small.setdefault((job.bag, size), []).append(job.id)
        elif job.bag in priority_bags:
            priority.setdefault((job.bag, size), []).append(job.id)
        else:
            wildcard.setdefault(size, {}).setdefault(job.bag, []).append(job.id)
    return JobTable(
        priority={key: tuple(sorted(ids)) for key, ids in priority.items()},
        wildcard={
            size: {bag: tuple(sorted(ids)) for bag, ids in per_bag.items()}
            for size, per_bag in wildcard.items()
        },
        small=tuple(
            SmallClass(bag=bag, size=size, job_ids=tuple(sorted(ids)))
            for (bag, size), ids in sorted(small.items())
        ),
    )


def collect_entry_types(table: JobTable) -> list[tuple[PatternEntry, int]]:
    """Build the slot-type universe of the transformed instance.

    * one entry per (priority bag, distinct medium-or-large size present in
      that bag), available count = number of such jobs;
    * one wildcard entry per distinct large size present in non-priority
      bags (after the transformation these are exactly the companion bags),
      available count = total number of such jobs.
    """
    entry_types = [
        (PatternEntry(size=size, bag=bag), len(ids))
        for (bag, size), ids in table.priority.items()
    ]
    entry_types.extend(
        (PatternEntry(size=size, bag=WILDCARD_BAG), sum(map(len, per_bag.values())))
        for size, per_bag in table.wildcard.items()
    )
    # Large slots first makes the DFS prune earlier (capacity fills faster).
    # No two entries share (size, bag), so this sort alone fixes the order.
    entry_types.sort(key=lambda item: (-item[0].size, item[0].bag))
    return entry_types


def _walk_patterns(
    entries: list[tuple[PatternEntry, int]],
    capacity: float,
    max_slots: int,
    emit: Callable[[list[tuple[PatternEntry, int]], float, int], None],
) -> None:
    """Visit every valid pattern depth-first: ``emit(stack, height, slots)``.

    ``stack`` holds the pattern's ``(entry, count)`` pairs in entry order.  It
    is pushed and popped as the walk descends, so ``emit`` copies what it
    keeps.
    """
    usable = [
        (entry, entry.size, entry.bag, entry.is_wildcard, available)
        for entry, available in entries
        if available > 0
    ]
    stack: list[tuple[PatternEntry, int]] = []

    def recurse(start: int, height: float, slots: int, used_bags: frozenset[int]) -> None:
        emit(stack, height, slots)
        if slots >= max_slots:
            return
        for index in range(start, len(usable)):
            entry, size, bag, wildcard, available = usable[index]
            if height + size > capacity:
                continue
            if wildcard:
                # Take 1..limit copies of the wildcard slot.
                limit = min(available, max_slots - slots)
                taken = 0
                added_height = 0.0
                while taken < limit and height + added_height + size <= capacity:
                    taken += 1
                    added_height += size
                    stack.append((entry, taken))
                    recurse(index + 1, height + added_height, slots + taken, used_bags)
                    stack.pop()
            elif bag not in used_bags:
                stack.append((entry, 1))
                recurse(index + 1, height + size, slots + 1, used_bags | {bag})
                stack.pop()

    recurse(0, 0.0, 0, frozenset())


def enumerate_patterns(
    entry_types: Iterable[tuple[PatternEntry, int]],
    *,
    budget: float,
    max_slots: int,
    max_patterns: int = 50_000,
) -> PatternSet:
    """Enumerate every valid pattern over the given entry types.

    Multiplicity rules: priority entries appear at most once per pattern and
    at most one entry per priority bag; wildcard entries may repeat up to the
    number of available jobs of that size (and up to ``max_slots``).  The
    empty pattern is always included (machines may carry only small jobs).

    The patterns are counted first, by a walk that builds none of them, and
    :class:`SolverLimitError` is raised when more than ``max_patterns`` would
    be produced: no pattern is built past the cap.  Only then does a second
    walk build them.  Both walks visit the patterns in the same depth-first
    order, and that order fixes the column order of the configuration MILP.
    """
    entries = list(entry_types)
    capacity = budget + SIZE_TOL
    count = 0

    def count_pattern(stack: object, height: float, slots: int) -> None:
        nonlocal count
        count += 1
        if count > max_patterns:
            raise SolverLimitError(
                f"pattern enumeration exceeded max_patterns={max_patterns}; "
                "increase the limit or use a larger eps"
            )

    _walk_patterns(entries, capacity, max_slots, count_pattern)
    patterns: list[Pattern] = []
    _walk_patterns(
        entries,
        capacity,
        max_slots,
        lambda stack, height, slots: patterns.append(
            Pattern(entries=tuple(stack), height=height, num_slots=slots)
        ),
    )
    return PatternSet(
        patterns=tuple(patterns),
        entry_types=tuple(entries),
        budget=budget,
        max_slots=max_slots,
    )
