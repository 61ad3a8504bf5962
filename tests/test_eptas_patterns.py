"""Unit tests for pattern (configuration) enumeration (Definition 3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import best_lower_bound
from repro.core import Instance, Job
from repro.core.errors import SolverLimitError
from repro.eptas import (
    EptasConfig,
    classify_bags,
    classify_jobs,
    collect_entry_types,
    enumerate_patterns,
    group_jobs,
    round_instance,
    scale_and_round,
    transform_instance,
)
from repro.eptas.classification import SIZE_TOL
from repro.eptas.patterns import (
    WILDCARD_BAG,
    Pattern,
    PatternEntry,
    PatternSet,
    _count_patterns,
    _PatternRules,
    size_key,
)
from repro.generators import (
    clustered_sizes_instance,
    figure1_adversarial_instance,
    replica_workload_instance,
    uniform_random_instance,
)

from helpers import drawn_instances, reference_group_jobs


def _entry(size: float, bag: int) -> PatternEntry:
    return PatternEntry(size=size, bag=bag)


def _reference_patterns(
    entry_types,
    *,
    budget: float,
    max_slots: int,
    max_patterns: int = 50_000,
) -> PatternSet:
    """Oracle: a one-walk enumerator with the same rules and visit order.

    It builds every pattern as it goes, rescanning all entry types per
    pattern, and raises once pattern ``max_patterns + 1`` is reached.
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


def _count_by_walk(
    entry_types, *, budget: float, max_slots: int, max_patterns: int
) -> int:
    """Oracle: the count that decided the cap before it was memoised.

    It visits the patterns one by one, in the enumerator's order and with
    its float additions, tracks the used priority bags in a frozenset, and
    raises once pattern ``max_patterns + 1`` is reached.
    """
    usable = [
        (entry.size, entry.bag, entry.is_wildcard, available)
        for entry, available in entry_types
        if available > 0
    ]
    capacity = budget + SIZE_TOL
    count = 0

    def recurse(start: int, height: float, slots: int, used_bags: frozenset[int]) -> None:
        nonlocal count
        count += 1
        if count > max_patterns:
            raise SolverLimitError(
                f"pattern enumeration exceeded max_patterns={max_patterns}; "
                "increase the limit or use a larger eps"
            )
        if slots >= max_slots:
            return
        for index in range(start, len(usable)):
            size, bag, wildcard, available = usable[index]
            if height + size > capacity:
                continue
            if wildcard:
                limit = min(available, max_slots - slots)
                taken = 0
                added_height = 0.0
                while taken < limit and height + added_height + size <= capacity:
                    taken += 1
                    added_height += size
                    recurse(index + 1, height + added_height, slots + taken, used_bags)
            elif bag not in used_bags:
                recurse(index + 1, height + size, slots + 1, used_bags | {bag})

    recurse(0, 0.0, 0, frozenset())
    return count


def _memoised_count(
    entry_types, *, budget: float, max_slots: int, max_patterns: int
) -> int:
    """The count ``enumerate_patterns`` decides the cap with."""
    rules = _PatternRules(list(entry_types), budget + SIZE_TOL, max_slots)
    return _count_patterns(rules, max_patterns)


def _count_outcome(count, entry_types, **kwargs) -> int | str:
    """The pattern count, or the limit message."""
    try:
        return count(entry_types, **kwargs)
    except SolverLimitError as exc:
        return str(exc)


def _outcome(enumerate_, entry_types, **kwargs):
    """The ordered ``(entries, height, num_slots)`` sequence, or the limit message."""
    try:
        patterns = enumerate_(entry_types, **kwargs)
    except SolverLimitError as exc:
        return str(exc)
    return patterns.entry_types, [
        (pattern.entries, pattern.height, pattern.num_slots)
        for pattern in patterns.patterns
    ]


def _assert_matches_reference(entry_types, **kwargs) -> None:
    expected = _outcome(_reference_patterns, entry_types, **kwargs)
    assert _outcome(enumerate_patterns, entry_types, **kwargs) == expected


# Rounded sizes are powers of 1 + eps (here eps = 1/4), as in ``rounding``.
_GRID_SIZES = tuple(size_key(1.25**power) for power in range(-10, 4))


@st.composite
def _enumeration_inputs(draw) -> tuple[list[tuple[PatternEntry, int]], float]:
    """Slot types and a budget for the two enumerators to agree on.

    Entries mix priority bags 0-4 and the wildcard, with 0-4 jobs each, and
    the budget lies in [1, 2.25].  Half the time the budget sits within the
    size tolerance of a sum of drawn sizes, which tests pruning at the edge.
    """
    entry_types = [
        (_entry(size, bag), available)
        for size, bag, available in draw(
            st.lists(
                st.tuples(
                    st.sampled_from(_GRID_SIZES),
                    st.sampled_from((WILDCARD_BAG, 0, 1, 2, 3, 4)),
                    st.integers(min_value=0, max_value=4),
                ),
                max_size=8,
            )
        )
    ]
    budget = draw(st.floats(min_value=1.0, max_value=2.25))
    if entry_types and draw(st.booleans()):
        sizes = [entry.size for entry, _ in entry_types]
        height = sum(draw(st.lists(st.sampled_from(sizes), min_size=1, max_size=6)))
        if 1.0 <= height <= 2.25:
            offset = draw(st.sampled_from((-1.5, -0.5, 0.0, 0.5)))
            budget = height + offset * SIZE_TOL
    return entry_types, budget


@st.composite
def _many_bag_inputs(draw) -> tuple[list[tuple[PatternEntry, int]], float]:
    """Many priority bags over two or three sizes, plus wildcard slots.

    With few sizes, many depth-first nodes share an entry index, a height
    and the bags still to come: the states whose subtree counts the memo
    merges.  Entries come in ``collect_entry_types``' order, so the entries
    of one bag lie apart and its used bit matters to the nodes in between.
    Half the time the budget sits within the size tolerance of a sum of the
    sizes, or exactly one tolerance below it, where the capacity test on
    that sum turns on the last bits of the float additions.
    """
    # Sizes up to 1.25**-3 = 0.512, so patterns hold several slots.
    small_sizes = st.sampled_from(_GRID_SIZES[:8])
    sizes = draw(st.lists(small_sizes, min_size=2, max_size=3, unique=True))
    entry_types = []
    for bag in range(draw(st.integers(min_value=4, max_value=12))):
        bag_sizes = draw(
            st.lists(st.sampled_from(sizes), min_size=1, max_size=len(sizes), unique=True)
        )
        entry_types.extend(
            (_entry(size, bag), draw(st.integers(min_value=0, max_value=3)))
            for size in bag_sizes
        )
    for size in draw(st.lists(st.sampled_from(sizes), max_size=len(sizes), unique=True)):
        entry_types.append(
            (_entry(size, WILDCARD_BAG), draw(st.integers(min_value=0, max_value=6)))
        )
    entry_types.sort(key=lambda item: (-item[0].size, item[0].bag))
    budget = draw(st.floats(min_value=1.0, max_value=2.25))
    if draw(st.booleans()):
        height = sum(draw(st.lists(st.sampled_from(sizes), min_size=1, max_size=8)))
        if 1.0 <= height <= 2.25:
            offset = draw(st.sampled_from((-1.5, -1.0, -0.5, 0.0, 0.5)))
            budget = height + offset * SIZE_TOL
    return entry_types, budget


def _library_entry_types(instance: Instance, eps: float):
    """Entry types and constants at ``eptas_schedule``'s first guess, the lower bound."""
    config = EptasConfig(eps=eps).normalised()
    guess = best_lower_bound(instance).best
    working = scale_and_round(instance, config.eps, guess)
    job_classes = classify_jobs(working, config.eps)
    bag_classes = classify_bags(
        working,
        job_classes,
        mode=config.mode,
        practical_priority_cap=config.practical_priority_cap,
    )
    record = transform_instance(working, job_classes, bag_classes)
    transformed_jobs = classify_jobs(record.transformed, config.eps, k=job_classes.k)
    entry_types = collect_entry_types(
        group_jobs(record.transformed, transformed_jobs, bag_classes)
    )
    return entry_types, bag_classes.constants


class TestEnumeration:
    def test_empty_pattern_always_present(self):
        patterns = enumerate_patterns([], budget=1.0, max_slots=3)
        assert len(patterns) == 1
        assert patterns.patterns[0].entries == ()
        assert patterns.patterns[0].height == 0.0

    def test_budget_respected(self):
        entries = [(_entry(0.6, 0), 3), (_entry(0.5, 1), 3)]
        patterns = enumerate_patterns(entries, budget=1.0, max_slots=5)
        for pattern in patterns.patterns:
            assert pattern.height <= 1.0 + 1e-9
        # 0.6 + 0.5 > 1.0, so no pattern holds both
        assert not any(
            pattern.uses_bag(0) and pattern.uses_bag(1) for pattern in patterns.patterns
        )

    def test_at_most_one_slot_per_priority_bag(self):
        entries = [(_entry(0.3, 0), 5), (_entry(0.2, 0), 5), (_entry(0.25, 1), 5)]
        patterns = enumerate_patterns(entries, budget=2.0, max_slots=6)
        for pattern in patterns.patterns:
            slots_bag0 = sum(
                count
                for entry, count in pattern.entries
                if entry.bag == 0
            )
            assert slots_bag0 <= 1

    def test_wildcard_multiplicity_up_to_availability(self):
        entries = [(_entry(0.3, WILDCARD_BAG), 2)]
        patterns = enumerate_patterns(entries, budget=2.0, max_slots=10)
        max_count = max(
            (pattern.count_of(_entry(0.3, WILDCARD_BAG)) for pattern in patterns.patterns),
            default=0,
        )
        assert max_count == 2  # bounded by availability, not by the budget

    def test_wildcard_bounded_by_max_slots(self):
        entries = [(_entry(0.1, WILDCARD_BAG), 50)]
        patterns = enumerate_patterns(entries, budget=10.0, max_slots=4)
        for pattern in patterns.patterns:
            assert pattern.num_slots <= 4

    def test_max_patterns_limit(self):
        entries = [(_entry(0.05, bag), 1) for bag in range(20)]
        with pytest.raises(SolverLimitError, match="max_patterns=100"):
            enumerate_patterns(entries, budget=5.0, max_slots=20, max_patterns=100)
        # Exactly at the cap every pattern comes back; one below, it raises.
        entries = entries[:6] + [(_entry(0.3, WILDCARD_BAG), 3)]
        full = enumerate_patterns(entries, budget=5.0, max_slots=20)
        assert len(full) == 2**6 * 4
        at_cap = enumerate_patterns(
            entries, budget=5.0, max_slots=20, max_patterns=len(full)
        )
        assert at_cap.patterns == full.patterns
        with pytest.raises(SolverLimitError, match=f"max_patterns={len(full) - 1}"):
            enumerate_patterns(
                entries, budget=5.0, max_slots=20, max_patterns=len(full) - 1
            )

    def test_pattern_helpers(self):
        entries = [(_entry(0.5, 3), 1), (_entry(0.4, WILDCARD_BAG), 2)]
        patterns = enumerate_patterns(entries, budget=2.0, max_slots=4)
        full = max(patterns.patterns, key=lambda p: p.num_slots)
        assert full.uses_bag(3)
        assert not full.uses_bag(99)
        assert full.wildcard_slots() == {0.4: 2}
        assert full.priority_slots() == {(3, 0.5): 1}
        assert "B^0.5_3" in full.label()
        summary = patterns.summary()
        assert summary["num_patterns"] == len(patterns)


class TestMatchesReference:
    """``enumerate_patterns`` yields the reference's patterns in its order."""

    @given(
        inputs=_enumeration_inputs(),
        max_slots=st.integers(min_value=1, max_value=8),
        max_patterns=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_entry_sets(self, inputs, max_slots, max_patterns):
        entry_types, budget = inputs
        _assert_matches_reference(
            entry_types, budget=budget, max_slots=max_slots, max_patterns=max_patterns
        )

    @pytest.mark.parametrize(
        "instance, eps",
        [
            pytest.param(clustered_sizes_instance(seed=0).instance, 0.5, id="clustered-cap"),
            pytest.param(
                clustered_sizes_instance(
                    num_jobs=24, num_machines=4, num_bags=6, seed=1
                ).instance,
                0.25,
                id="clustered-small",
            ),
            pytest.param(
                uniform_random_instance(
                    num_jobs=20, num_machines=4, num_bags=8, seed=0
                ).instance,
                0.25,
                id="uniform",
            ),
            pytest.param(
                figure1_adversarial_instance(num_machines=6).instance, 0.25, id="figure1"
            ),
        ],
    )
    def test_library_instances(self, instance, eps):
        entry_types, constants = _library_entry_types(instance, eps)
        _assert_matches_reference(
            entry_types,
            budget=constants.budget,
            max_slots=constants.q,
            max_patterns=5_000,
        )


class TestMemoisedCount:
    """The memoised count decides the cap exactly as the count-by-walk did."""

    # Entry sets whose walk passes this many patterns are checked at the cap.
    ORACLE_CAP = 5_000

    @given(inputs=_many_bag_inputs(), max_slots=st.integers(min_value=2, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_count_and_limit_decision_match_the_walk(self, inputs, max_slots):
        entry_types, budget = inputs
        kwargs = {"budget": budget, "max_slots": max_slots}
        count = _count_outcome(
            _count_by_walk, entry_types, max_patterns=self.ORACLE_CAP, **kwargs
        )
        if isinstance(count, str):
            assert count == _count_outcome(
                _memoised_count, entry_types, max_patterns=self.ORACLE_CAP, **kwargs
            )
            return
        assert _memoised_count(entry_types, max_patterns=count, **kwargs) == count
        for max_patterns in (count - 1, count, count + 1):
            assert _count_outcome(
                _memoised_count, entry_types, max_patterns=max_patterns, **kwargs
            ) == _count_outcome(
                _count_by_walk, entry_types, max_patterns=max_patterns, **kwargs
            )

    def test_heights_one_ulp_apart_stay_apart(self):
        """Memo keys hold the exact float height, as summed by the walk.

        Two wildcard slots of size ``s`` add ``s + s`` at once, two priority
        slots add ``s`` twice, so the two nodes that then take ``x`` share
        their index, slots and bags but not the last bit of their height.
        The budget lets only the lower one take ``t``.
        """
        r, s, x, t = (size_key(1.25**power) for power in (-3, -8, -9, -10))
        entry_types = [
            (_entry(r, 0), 1),
            (_entry(s, WILDCARD_BAG), 2),
            (_entry(s, 1), 1),
            (_entry(s, 2), 1),
            (_entry(x, 3), 1),
            (_entry(t, 4), 1),
        ]
        wildcard_height = r + (s + s) + x
        priority_height = (r + s) + s + x
        budget = priority_height + t - SIZE_TOL
        assert priority_height + t <= budget + SIZE_TOL < wildcard_height + t
        kwargs = {"budget": budget, "max_slots": 10, "max_patterns": 10_000}
        count = _count_by_walk(entry_types, **kwargs)
        assert _memoised_count(entry_types, **kwargs) == count
        assert len(enumerate_patterns(entry_types, **kwargs)) == count

    @pytest.mark.parametrize(
        "instance",
        [
            pytest.param(
                replica_workload_instance(num_services=30, num_machines=12, seed=0).instance,
                id="replicas-30-m12-s0",
            ),
            pytest.param(
                replica_workload_instance(num_services=30, num_machines=12, seed=1).instance,
                id="replicas-30-m12-s1",
            ),
            pytest.param(
                replica_workload_instance(num_services=40, num_machines=16, seed=0).instance,
                id="replicas-40-m16-s0",
            ),
            pytest.param(clustered_sizes_instance(seed=0).instance, id="clustered-s0"),
            pytest.param(clustered_sizes_instance(seed=1).instance, id="clustered-s1"),
        ],
    )
    def test_pattern_cap_first_guesses(self, instance):
        """The first guesses of the ``pattern-cap`` benchmark instances."""
        entry_types, constants = _library_entry_types(instance, 0.5)
        kwargs = {
            "budget": constants.budget,
            "max_slots": constants.q,
            "max_patterns": 50_000,
        }
        expected = _count_outcome(_count_by_walk, entry_types, **kwargs)
        assert isinstance(expected, str) and "max_patterns=50000" in expected
        assert _outcome(enumerate_patterns, entry_types, **kwargs) == expected


class TestCollectEntryTypes:
    def test_priority_and_wildcard_split(self):
        # bag 0 priority with one large job, bags 1..3 non-priority with large jobs
        sizes = [0.5, 0.5, 0.5, 0.5, 0.02]
        bags = [0, 1, 2, 3, 0]
        instance = Instance.from_sizes(sizes, bags, num_machines=4)
        job_classes = classify_jobs(instance, 0.5, k=1)
        bag_classes = classify_bags(instance, job_classes, practical_priority_cap=1)
        entry_types = collect_entry_types(group_jobs(instance, job_classes, bag_classes))
        wildcard = [(e, c) for e, c in entry_types if e.is_wildcard]
        priority = [(e, c) for e, c in entry_types if not e.is_wildcard]
        assert len(priority) == 1
        assert priority[0][1] == 1
        assert len(wildcard) == 1
        assert wildcard[0][1] == 3  # three non-priority large jobs of size 0.5

    def test_small_jobs_ignored(self):
        instance = Instance.from_sizes([0.5, 0.01, 0.02], bags=[0, 0, 1], num_machines=2)
        job_classes = classify_jobs(instance, 0.5, k=1)
        bag_classes = classify_bags(instance, job_classes, practical_priority_cap=2)
        entry_types = collect_entry_types(group_jobs(instance, job_classes, bag_classes))
        assert all(entry.size >= 0.25 for entry, _ in entry_types)

    def test_entries_sorted_large_first(self):
        instance = Instance.from_sizes(
            [0.3, 0.6, 0.9], bags=[0, 1, 2], num_machines=3
        )
        job_classes = classify_jobs(instance, 0.5, k=1)
        bag_classes = classify_bags(instance, job_classes, practical_priority_cap=5)
        entry_types = collect_entry_types(group_jobs(instance, job_classes, bag_classes))
        sizes = [entry.size for entry, _ in entry_types]
        assert sizes == sorted(sizes, reverse=True)


class TestGroupJobs:
    def test_ids_ascend_within_every_group_whatever_the_job_order(self):
        # Jobs listed with descending ids: bag 0 is priority (three large jobs
        # of one size), bags 1 and 2 are not, and every bag has small jobs.
        sizes = [0.02, 0.5, 0.02, 0.5, 0.5, 0.5, 0.5, 0.5, 0.02, 0.03, 0.02]
        bags = [2, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        jobs = [
            Job(id=len(sizes) - 1 - index, size=size, bag=bag)
            for index, (size, bag) in enumerate(zip(sizes, bags))
        ]
        instance = Instance(jobs, num_machines=6)
        job_classes = classify_jobs(instance, 0.5, k=1)
        bag_classes = classify_bags(instance, job_classes, practical_priority_cap=1)
        assert bag_classes.priority == {0}
        table = group_jobs(instance, job_classes, bag_classes)
        assert table.priority == {(0, 0.5): (3, 4, 5)}
        assert table.wildcard == {0.5: {2: (9,), 1: (6, 7)}}
        assert [(small.bag, small.size, small.job_ids) for small in table.small] == [
            (0, 0.02, (0, 2)),
            (0, 0.03, (1,)),
            (1, 0.02, (8,)),
            (2, 0.02, (10,)),
        ]
        assert collect_entry_types(table) == [
            (PatternEntry(size=0.5, bag=WILDCARD_BAG), 3),
            (PatternEntry(size=0.5, bag=0), 3),
        ]

    @staticmethod
    def _assert_matches_the_job_walk(instance, eps):
        job_classes = classify_jobs(instance, eps)
        bag_classes = classify_bags(instance, job_classes, practical_priority_cap=1)
        table = group_jobs(instance, job_classes, bag_classes)
        expected = reference_group_jobs(instance, job_classes, bag_classes)
        assert table == expected
        # The same insertion orders too, and the ids are the jobs' own objects.
        assert list(table.priority) == list(expected.priority)
        assert [list(per_bag) for per_bag in table.wildcard.values()] == [
            list(per_bag) for per_bag in expected.wildcard.values()
        ]
        own_ids = {id(job_id) for job_id in instance.job_id_by_row}
        assert all(id(job_id) in own_ids for small in table.small for job_id in small.job_ids)

    @settings(max_examples=200, deadline=None)
    @given(drawn_instances(), st.sampled_from([0.5, 0.25]), st.booleans())
    def test_matches_the_job_walk_on_drawn_instances(self, instance, eps, rounded):
        if rounded:
            instance = round_instance(instance, eps)
        self._assert_matches_the_job_walk(instance, eps)

    def test_repeated_ids(self):
        # Id a sits in rows 0 and 2: both rows are grouped, as the walk over
        # the jobs groups them.  The ids lie above Python's small-int cache,
        # so the check that the table holds the jobs' own id objects bites.
        a, b, c = (10**6 + offset for offset in (1, 2, 3))
        instance = Instance(
            [Job(a, 0.7, 0), Job(b, 0.01, 1), Job(a, 0.02, 1), Job(c, 0.6, 2)],
            2,
            name="repeated",
            validate=False,
        )
        self._assert_matches_the_job_walk(instance, 0.5)
        job_classes = classify_jobs(instance, 0.5)
        table = group_jobs(
            instance, job_classes, classify_bags(instance, job_classes, practical_priority_cap=1)
        )
        grouped = [job_id for small in table.small for job_id in small.job_ids]
        grouped += [job_id for ids in table.priority.values() for job_id in ids]
        grouped += [
            job_id
            for per_bag in table.wildcard.values()
            for ids in per_bag.values()
            for job_id in ids
        ]
        assert sorted(grouped) == [a, a, b, c]

