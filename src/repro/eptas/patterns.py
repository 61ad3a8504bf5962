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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..core.errors import SolverLimitError
from ..core.instance import Instance
from .classification import BagClasses, JobClasses, SIZE_TOL

__all__ = [
    "PatternEntry",
    "Pattern",
    "PatternSet",
    "size_key",
    "collect_entry_types",
    "enumerate_patterns",
]

#: Bag marker used for the wildcard ("B_x") slots of non-priority bags.
WILDCARD_BAG = -1


def size_key(size: float) -> float:
    """Canonical float key for a (rounded) size, robust to tiny FP noise."""
    return round(float(size), 12)


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


def collect_entry_types(
    instance: Instance,
    job_classes: JobClasses,
    bag_classes: BagClasses,
) -> list[tuple[PatternEntry, int]]:
    """Build the slot-type universe of the transformed instance.

    * one entry per (priority bag, distinct medium-or-large size present in
      that bag), available count = number of such jobs;
    * one wildcard entry per distinct large size present in non-priority
      bags (after the transformation these are exactly the companion bags),
      available count = total number of such jobs.
    """
    priority_counts: dict[tuple[int, float], int] = {}
    wildcard_counts: dict[float, int] = {}
    for job in instance.jobs:
        if job.id in job_classes.small:
            continue
        key_size = size_key(job.size)
        if job.bag in bag_classes.priority:
            priority_counts[(job.bag, key_size)] = (
                priority_counts.get((job.bag, key_size), 0) + 1
            )
        else:
            # After the transformation non-priority bags hold no medium jobs;
            # defensive inclusion keeps the enumerator correct even when it
            # is used on untransformed instances (e.g. in unit tests).
            wildcard_counts[key_size] = wildcard_counts.get(key_size, 0) + 1

    entry_types: list[tuple[PatternEntry, int]] = []
    for (bag, size), count in sorted(priority_counts.items()):
        entry_types.append((PatternEntry(size=size, bag=bag), count))
    for size, count in sorted(wildcard_counts.items()):
        entry_types.append((PatternEntry(size=size, bag=WILDCARD_BAG), count))
    # Large slots first makes the DFS prune earlier (capacity fills faster).
    entry_types.sort(key=lambda item: (-item[0].size, item[0].bag))
    return entry_types


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

    Raises :class:`SolverLimitError` when more than ``max_patterns`` patterns
    would be produced.
    """
    entries = list(entry_types)
    patterns: list[Pattern] = []
    current_counts: list[int] = [0] * len(entries)

    def emit(height: float, slots: int) -> None:
        if len(patterns) >= max_patterns:
            raise SolverLimitError(
                f"pattern enumeration exceeded max_patterns={max_patterns}; "
                "increase the limit or use a larger eps"
            )
        chosen = tuple(
            (entries[index][0], count)
            for index, count in enumerate(current_counts)
            if count > 0
        )
        patterns.append(Pattern(entries=chosen, height=height, num_slots=slots))

    def recurse(start: int, height: float, slots: int, used_bags: frozenset[int]) -> None:
        emit(height, slots)
        for index in range(start, len(entries)):
            entry, available = entries[index]
            if available <= 0:
                continue
            if not entry.is_wildcard and entry.bag in used_bags:
                continue
            if slots >= max_slots:
                continue
            if height + entry.size > budget + SIZE_TOL:
                continue
            if entry.is_wildcard:
                # Take 1..limit copies of the wildcard slot.
                limit = min(available, max_slots - slots)
                taken = 0
                added_height = 0.0
                while taken < limit and height + added_height + entry.size <= budget + SIZE_TOL:
                    taken += 1
                    added_height += entry.size
                    current_counts[index] = taken
                    recurse(
                        index + 1,
                        height + added_height,
                        slots + taken,
                        used_bags,
                    )
                current_counts[index] = 0
            else:
                current_counts[index] = 1
                recurse(
                    index + 1,
                    height + entry.size,
                    slots + 1,
                    used_bags | {entry.bag},
                )
                current_counts[index] = 0

    recurse(0, 0.0, 0, frozenset())
    return PatternSet(
        patterns=tuple(patterns),
        entry_types=tuple(entries),
        budget=budget,
        max_slots=max_slots,
    )
