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

It counts the patterns before it builds any.  The count is memoised: the
patterns below a depth-first node depend only on its entry index, height,
slot count and the used priority bags that still have an entry ahead, so a
repeated node state adds its stored subtree count in one step.  A call past
``max_patterns`` therefore raises after work bounded by the cap, not by the
number of patterns.

The slot types come from the :class:`JobTable` that :func:`group_jobs`
builds once per guess: every job of the transformed instance keyed by its
(bag, size).  The configuration MILP and both placement stages read the same
table, so no later stage groups jobs again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core.errors import AlgorithmError, SolverLimitError
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
    MILP and both placement stages read it.  It walks the instance's job
    table (each row's id, size and bag), not its :class:`~repro.core.job.Job`
    objects, and :func:`size_key` runs once per distinct size.
    """
    small_ids = job_classes.small
    priority_bags = bag_classes.priority
    priority: dict[tuple[int, float], list[int]] = {}
    wildcard: dict[float, dict[int, list[int]]] = {}
    small: dict[tuple[int, float], list[int]] = {}
    keys: dict[float, float] = {}  # size -> size_key(size)
    for job_id, job_size, bag in zip(
        instance.job_id_by_row, instance.sizes.tolist(), instance.job_bags.tolist()
    ):
        size = keys.get(job_size)
        if size is None:
            size = keys[job_size] = size_key(job_size)
        if job_id in small_ids:
            small.setdefault((bag, size), []).append(job_id)
        elif bag in priority_bags:
            priority.setdefault((bag, size), []).append(job_id)
        else:
            wildcard.setdefault(size, {}).setdefault(bag, []).append(job_id)
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


class _PatternRules:
    """The pattern rules over the entry types that have jobs.

    Both walks of :func:`enumerate_patterns` expand a depth-first node
    through :meth:`children`, so the capacity test, the slot cap, one slot
    per priority bag and the wildcard multiplicity are stated once, and
    every height is summed in the same order.  Each priority bag gets one
    bit of an int mask; a wildcard entry has bit 0.
    """

    __slots__ = ("entries", "slot_types", "capacity", "max_slots", "later_bags")

    def __init__(
        self, entries: list[tuple[PatternEntry, int]], capacity: float, max_slots: int
    ) -> None:
        usable = [(entry, available) for entry, available in entries if available > 0]
        bits: dict[int, int] = {}
        self.entries = [entry for entry, _ in usable]
        self.slot_types = [
            (
                entry.size,
                0 if entry.is_wildcard else bits.setdefault(entry.bag, 1 << len(bits)),
                available,
            )
            for entry, available in usable
        ]
        self.capacity = capacity
        self.max_slots = max_slots
        # later_bags[i]: the bits of the priority bags with an entry at index >= i.
        self.later_bags = [0] * (len(usable) + 1)
        for index in reversed(range(len(usable))):
            self.later_bags[index] = self.later_bags[index + 1] | self.slot_types[index][1]

    def children(
        self, start: int, height: float, slots: int, used: int
    ) -> Iterator[tuple[int, int, float, int, int]]:
        """Yield ``(index, taken, height, slots, used)`` per child, in visit order.

        A child takes ``taken`` copies of entry ``index``; its own children
        start at ``index + 1``.
        """
        if slots >= self.max_slots:
            return
        capacity = self.capacity
        for index in range(start, len(self.slot_types)):
            size, bit, available = self.slot_types[index]
            if height + size > capacity:
                continue
            if not bit:
                # Take 1..limit copies of the wildcard slot.
                limit = min(available, self.max_slots - slots)
                taken = 0
                added_height = 0.0
                while taken < limit and height + added_height + size <= capacity:
                    taken += 1
                    added_height += size
                    yield index, taken, height + added_height, slots + taken, used
            elif not used & bit:
                yield index, 1, height + size, slots + 1, used | bit


def _count_patterns(rules: _PatternRules, max_patterns: int) -> int:
    """The number of patterns, or :class:`SolverLimitError` past ``max_patterns``.

    The patterns below a node depend only on its entry index, height, slots
    and the used priority bags that still have an entry at or after that
    index.  Each distinct node state is expanded once; a repeated state adds
    its stored subtree count.  The count stops as soon as its running total
    passes ``max_patterns``.  A state is stored only when its subtree is
    counted within the cap, and each stored state added 1 of its own to the
    total, so the memo holds at most ``max_patterns`` states.
    """
    later_bags = rules.later_bags
    children = rules.children
    memo: dict[tuple[int, float, int, int], int] = {}
    total = 0

    def visit(start: int, height: float, slots: int, used: int) -> None:
        nonlocal total
        key = (start, height, slots, used & later_bags[start])
        stored = memo.get(key)
        if stored is None:
            before = total
            total += 1
            if total <= max_patterns:
                for index, _, child_height, child_slots, child_used in children(
                    start, height, slots, used
                ):
                    visit(index + 1, child_height, child_slots, child_used)
                memo[key] = total - before
        else:
            total += stored
        if total > max_patterns:
            raise SolverLimitError(
                f"pattern enumeration exceeded max_patterns={max_patterns}; "
                "increase the limit or use a larger eps"
            )

    visit(0, 0.0, 0, 0)
    return total


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

    The patterns are counted first, by a memoised walk that builds none of
    them (see :func:`_count_patterns`), and :class:`SolverLimitError` is
    raised when more than ``max_patterns`` would be produced: no pattern is
    built past the cap.  Only then does a depth-first walk build them, in
    the order that fixes the column order of the configuration MILP.  Both
    walks apply the same rules with the same float additions, so the count
    is exact; a build that yields another number raises
    :class:`AlgorithmError`.
    """
    entries = list(entry_types)
    rules = _PatternRules(entries, budget + SIZE_TOL, max_slots)
    count = _count_patterns(rules, max_patterns)
    patterns: list[Pattern] = []
    stack: list[tuple[PatternEntry, int]] = []

    def build(start: int, height: float, slots: int, used: int) -> None:
        patterns.append(Pattern(entries=tuple(stack), height=height, num_slots=slots))
        for index, taken, child_height, child_slots, child_used in rules.children(
            start, height, slots, used
        ):
            stack.append((rules.entries[index], taken))
            build(index + 1, child_height, child_slots, child_used)
            stack.pop()

    build(0, 0.0, 0, 0)
    if len(patterns) != count:
        raise AlgorithmError(
            f"pattern enumeration built {len(patterns)} patterns but counted {count}"
        )
    return PatternSet(
        patterns=tuple(patterns),
        entry_types=tuple(entries),
        budget=budget,
        max_slots=max_slots,
    )
