"""Unit tests for large-job placement, small-job placement and conflict repair
(Lemmas 7-11 of the paper)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import lpt_schedule
from repro.core import Instance, Job, Occupancy, Schedule
from repro.core.errors import AlgorithmError
from repro.eptas import (
    ConfigurationSolution,
    EptasConfig,
    LargePlacement,
    build_configuration_milp,
    classify_bags,
    classify_jobs,
    collect_entry_types,
    enumerate_patterns,
    group_jobs,
    place_large_and_medium,
    place_small_jobs,
    resolve_conflicts,
    round_instance,
    scale_and_round,
    solve_configuration_milp,
    transform_instance,
)
from repro.eptas.patterns import WILDCARD_BAG, JobTable, Pattern, PatternEntry, PatternSet
from repro.eptas.small_jobs import place_non_priority_bags
from repro.generators import figure1_adversarial_instance, uniform_random_instance
from repro.milp import SolutionStatus

from helpers import drawn_instances, reference_place_non_priority_bags


def _full_pipeline(instance: Instance, eps: float = 0.25, guess: float | None = None):
    """Run the EPTAS pipeline up to (and including) small-job placement."""
    config = EptasConfig(eps=eps).normalised()
    if guess is None:
        guess = lpt_schedule(instance).makespan
    working = scale_and_round(instance, config.eps, guess)
    job_classes = classify_jobs(working, config.eps)
    bag_classes = classify_bags(
        working, job_classes, practical_priority_cap=config.practical_priority_cap
    )
    record = transform_instance(working, job_classes, bag_classes)
    transformed_jobs = classify_jobs(record.transformed, config.eps, k=job_classes.k)
    constants = bag_classes.constants
    table = group_jobs(record.transformed, transformed_jobs, bag_classes)
    entry_types = collect_entry_types(table)
    patterns = enumerate_patterns(
        entry_types,
        budget=constants.budget,
        max_slots=constants.q,
        max_patterns=config.max_patterns,
    )
    model = build_configuration_milp(
        record.transformed, table, bag_classes, constants, patterns
    )
    solution = solve_configuration_milp(model, config=config)
    assert solution.feasible
    placement = place_large_and_medium(record.transformed, table, patterns, solution)
    return (
        config,
        record,
        transformed_jobs,
        bag_classes,
        constants,
        table,
        solution,
        placement,
    )


class TestLargeJobPlacement:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_heavy_job_placed_without_conflicts(self, seed):
        instance = uniform_random_instance(
            num_jobs=20, num_machines=4, num_bags=7, seed=seed
        ).instance
        (_, record, transformed_jobs, *_rest, placement) = _full_pipeline(instance)
        schedule = placement.schedule
        for job in record.transformed.jobs:
            if job.id in transformed_jobs.medium_or_large:
                assert job.id in schedule, f"heavy job {job.id} unplaced"
        assert schedule.is_conflict_free()

    def test_machine_count_respected(self):
        instance = figure1_adversarial_instance(num_machines=4).instance
        (*_unused, placement) = _full_pipeline(instance, guess=1.0)
        assert len(placement.machine_pattern) == 4

    def test_origin_recorded_for_priority_jobs(self):
        instance = uniform_random_instance(
            num_jobs=20, num_machines=4, num_bags=7, seed=5
        ).instance
        (_, record, transformed_jobs, bag_classes, *_rest, placement) = _full_pipeline(instance)
        for job_id, machine in placement.origin.items():
            job = record.transformed.job(job_id)
            assert job.bag in bag_classes.priority
            assert 0 <= machine < record.transformed.num_machines

    def test_slots_take_the_smallest_id_left(self):
        # Bag 0 (priority) and bag 1 (not) hold two 0.5-jobs each, listed
        # with descending ids; both machines run one slot of each kind.
        jobs = [
            Job(id=3, size=0.5, bag=0),
            Job(id=1, size=0.5, bag=0),
            Job(id=2, size=0.5, bag=1),
            Job(id=0, size=0.5, bag=1),
        ]
        instance = Instance(jobs, num_machines=2)
        job_classes = classify_jobs(instance, 0.5, k=1)
        bag_classes = classify_bags(instance, job_classes, practical_priority_cap=1)
        assert bag_classes.priority == {0}
        table = group_jobs(instance, job_classes, bag_classes)
        patterns = enumerate_patterns(collect_entry_types(table), budget=1.0, max_slots=2)
        (both,) = [
            index
            for index, pattern in enumerate(patterns.patterns)
            if pattern.uses_bag(0) and pattern.wildcard_slots() == {0.5: 1}
        ]
        solution = ConfigurationSolution(
            feasible=True, status=SolutionStatus.OPTIMAL, pattern_machines={both: 2}
        )
        placement = place_large_and_medium(instance, table, patterns, solution)
        assert dict(placement.schedule.assignment) == {1: 0, 0: 0, 3: 1, 2: 1}

    @staticmethod
    def _wildcard_conflict(pattern_machines: dict[int, int]):
        """Jobs 0-2 (bag 1) and 3 (bag 2) of size 0.5 fill the two wildcard
        slots of pattern 0 on machines 0 and 1; machine 1's second slot can
        only take job 2, whose bag it already holds.  Pattern 1 is one slot
        for job 4 of priority bag 0."""
        jobs = [Job(id=job_id, size=0.5, bag=bag) for job_id, bag in enumerate([1, 1, 1, 2, 0])]
        instance = Instance(jobs, num_machines=3)
        table = JobTable(
            priority={(0, 0.5): (4,)},
            wildcard={0.5: {1: (0, 1, 2), 2: (3,)}},
            small=(),
        )
        wildcard, priority = PatternEntry(0.5, WILDCARD_BAG), PatternEntry(0.5, 0)
        patterns = PatternSet(
            patterns=(
                Pattern(entries=((wildcard, 2),), height=1.0, num_slots=2),
                Pattern(entries=((priority, 1),), height=0.5, num_slots=1),
            ),
            entry_types=((wildcard, 4), (priority, 1)),
            budget=1.0,
            max_slots=2,
        )
        solution = ConfigurationSolution(
            feasible=True, status=SolutionStatus.OPTIMAL, pattern_machines=pattern_machines
        )
        return place_large_and_medium(instance, table, patterns, solution)

    def test_lemma7_swaps_a_wildcard_conflict_with_a_same_size_job(self):
        # Job 4 of priority bag 0 on machine 2 is the only same-size job on
        # a machine without bag 1 whose bag machine 1 lacks: the two trade.
        placement = self._wildcard_conflict({0: 2, 1: 1})
        assert placement.swaps == 1 and placement.fallback_moves == 0
        assert placement.schedule.assignment == {4: 1, 0: 0, 3: 0, 1: 1, 2: 2}
        assert placement.origin == {4: 2}
        assert placement.schedule.is_conflict_free()

    def test_conflict_without_a_partner_is_relocated(self):
        # No pattern on machine 2 and no swap partner: job 2 moves to the
        # least-loaded machine without bag 1, the empty machine 2.
        placement = self._wildcard_conflict({0: 2})
        assert placement.swaps == 0 and placement.fallback_moves == 1
        assert placement.schedule.assignment == {0: 0, 3: 0, 1: 1, 2: 2}
        assert placement.schedule.is_conflict_free()

    def test_loads_do_not_exceed_budget_after_large_placement(self):
        instance = figure1_adversarial_instance(num_machines=6).instance
        (config, record, *_rest, placement) = _full_pipeline(instance, guess=1.0)
        budget = 1 + 2 * config.eps + config.eps**2
        assert placement.schedule.makespan() <= budget + 1e-9


class TestSmallJobPlacement:
    @pytest.mark.parametrize("seed", range(3))
    def test_all_jobs_placed_and_feasible(self, seed):
        instance = uniform_random_instance(
            num_jobs=22, num_machines=4, num_bags=8, seed=seed
        ).instance
        (
            config,
            record,
            transformed_jobs,
            bag_classes,
            constants,
            table,
            solution,
            placement,
        ) = _full_pipeline(instance)
        diagnostics = place_small_jobs(
            record.transformed,
            transformed_jobs,
            bag_classes,
            constants,
            table,
            solution,
            placement,
        )
        schedule = placement.schedule
        assert schedule.is_complete
        resolve_conflicts(record.transformed, schedule, transformed_jobs, placement.origin)
        schedule.validate(require_complete=True)
        counters = diagnostics.to_dict()
        placed = (
            counters["non_priority_jobs"]
            + counters["priority_full_jobs"]
            + counters["priority_slot_jobs"]
            + counters["priority_fallback_jobs"]
        )
        assert placed == len(transformed_jobs.small)

    def test_small_placement_keeps_makespan_reasonable(self):
        generated = figure1_adversarial_instance(num_machines=6)
        instance = generated.instance
        (
            config,
            record,
            transformed_jobs,
            bag_classes,
            constants,
            table,
            solution,
            placement,
        ) = _full_pipeline(instance, guess=1.0)
        place_small_jobs(
            record.transformed,
            transformed_jobs,
            bag_classes,
            constants,
            table,
            solution,
            placement,
        )
        resolve_conflicts(
            record.transformed, placement.schedule, transformed_jobs, placement.origin
        )
        # Guess = OPT = 1; the constructed schedule stays within the paper's
        # (1 + O(eps)) budget around the guess.
        budget = 1 + 2 * config.eps + config.eps**2
        assert placement.schedule.makespan() <= budget + constants.medium_threshold + 0.3

    @staticmethod
    def _priority_class_left_over(small_assignment):
        """Jobs 0, 1 and 4 (size 0.6, bags 0, 1 and 2) sit on machines 1, 0
        and 2; jobs 2 and 3 form the small class (bag 0, 0.1) of priority
        bag 0, placed according to ``small_assignment``.  No machine runs a
        pattern."""
        instance = Instance.from_sizes(
            [0.6, 0.6, 0.1, 0.1, 0.6], bags=[0, 1, 0, 0, 2], num_machines=3
        )
        job_classes = classify_jobs(instance, 0.5, k=1)
        bag_classes = classify_bags(instance, job_classes, practical_priority_cap=1)
        assert bag_classes.priority == {0}
        table = group_jobs(instance, job_classes, bag_classes)
        assert [(small.bag, small.size, small.job_ids) for small in table.small] == [
            (0, 0.1, (2, 3))
        ]
        placement = LargePlacement(
            schedule=Schedule(instance, {0: 1, 1: 0, 4: 2}), machine_pattern=[None] * 3
        )
        solution = ConfigurationSolution(
            feasible=True,
            status=SolutionStatus.OPTIMAL,
            small_assignment=[small_assignment],
        )
        diagnostics = place_small_jobs(
            instance, job_classes, bag_classes, bag_classes.constants, table, solution, placement
        )
        return diagnostics, placement.schedule

    def test_priority_jobs_without_a_slot_take_the_least_loaded_free_machine(self):
        # Lemma 10 with no merged slot: job 2 goes to machine 0, the lower
        # index of machines 0 and 2 (tied at 0.6, both without bag 0), and
        # job 3 to machine 2.
        diagnostics, schedule = self._priority_class_left_over([])
        assert diagnostics.priority_fallback_jobs == 2
        assert diagnostics.priority_slot_jobs == diagnostics.priority_full_jobs == 0
        assert schedule.assignment == {0: 1, 1: 0, 4: 2, 2: 0, 3: 2}

    def test_safety_net_places_jobs_of_a_pattern_without_machines(self):
        # The y values put both jobs on pattern 0, which no machine runs:
        # section E places them as the Lemma-10 fallback would.
        diagnostics, schedule = self._priority_class_left_over([(0, 2.0)])
        assert diagnostics.priority_fallback_jobs == 2
        assert diagnostics.priority_slot_jobs == diagnostics.priority_full_jobs == 0
        assert schedule.assignment == {0: 1, 1: 0, 4: 2, 2: 0, 3: 2}


def _run_section_c(place, instance, placed, *args):
    """Run a Section C implementation on a fresh occupancy of ``placed``;
    return its count (or error type) and the occupancy."""
    occupancy = Occupancy(Schedule(instance, placed))
    try:
        outcome = place(*args, occupancy)
    except AlgorithmError as exc:
        outcome = type(exc)
    return outcome, occupancy


def _assert_section_c_matches_the_job_walk(
    instance, job_classes, priority, groups, heights, placed
):
    """Section C over rows places like the Job-by-Job walk: the same count,
    the same assignment in the same insertion order, loads equal float for
    float and the same bag counts."""
    table = group_jobs(instance, job_classes, classify_bags(instance, job_classes))
    outcome, occupancy = _run_section_c(
        place_non_priority_bags, instance, placed, instance, table, priority, groups, heights
    )
    expected_outcome, expected = _run_section_c(
        reference_place_non_priority_bags,
        instance,
        placed,
        instance,
        job_classes,
        table,
        priority,
        groups,
        heights,
    )
    assert outcome == expected_outcome
    assert list(occupancy.assignment.items()) == list(expected.assignment.items())
    assert repr(occupancy.loads) == repr(expected.loads)
    assert occupancy.bags == expected.bags
    return occupancy


class TestNonPriorityPlacement:
    """Section C reads ids, sizes and bags by row and places each chunk in
    bulk; the Job-by-Job walk it replaced is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        drawn_instances(max_jobs=30),
        st.sampled_from([0.5, 0.25]),
        st.booleans(),
        st.data(),
    )
    def test_drawn_instances(self, instance, eps, rounded, data):
        # Rounding ties the sizes further and gives a copy that builds its
        # jobs on demand; a drawn priority set, machine groups of one to
        # three machines (so bags split), tied heights, and jobs placed
        # beforehand (so a chunk can hit a machine holding its bag and take
        # the defensive reroute, or hold a job already placed).
        if rounded:
            instance = round_instance(instance, eps)
        job_classes = classify_jobs(instance, eps)
        num_machines = instance.num_machines
        priority = frozenset(
            data.draw(st.sets(st.sampled_from(instance.bag_indices)))
            if instance.num_bags
            else ()
        )
        groups: dict[int, list[int]] = {}
        for machine in range(num_machines):
            groups.setdefault(data.draw(st.integers(0, 2)), []).append(machine)
        heights = [data.draw(st.sampled_from([0.0, 0.25, 0.5])) for _ in range(num_machines)]
        placed = {
            job_id: data.draw(st.integers(0, num_machines - 1))
            for job_id in data.draw(st.sets(st.sampled_from(list(instance.job_ids))))
        } if instance.num_jobs else {}
        _assert_section_c_matches_the_job_walk(
            instance, job_classes, priority, groups, heights, placed
        )

    def test_tied_areas_split_over_groups_with_zero_fillers(self):
        # All three bags have area 0.04, so they go in bag order.  Bags 0 and
        # 1 split over the two 2-machine groups: their two largest jobs go to
        # the lower group, their zero-size job to machine 2.
        instance = Instance.from_sizes(
            [0.02, 0.01, 0.02, 0.03, 0.0, 0.0, 0.04], bags=[0, 1, 0, 1, 0, 1, 2], num_machines=4
        )
        job_classes = classify_jobs(instance, 0.5, k=1)
        assert job_classes.small == set(range(7))
        occupancy = _assert_section_c_matches_the_job_walk(
            instance, job_classes, frozenset(), {0: [0, 1], 1: [2, 3]}, [0.0, 0.0, 0.5, 0.5], {}
        )
        assert list(occupancy.assignment.items()) == [
            (0, 0), (2, 1), (3, 0), (1, 1), (6, 1), (4, 2), (5, 2)
        ]

    def test_a_machine_holding_the_bag_takes_the_defensive_reroute(self):
        # Job 0 (large, bag 0) already sits on machine 0, the least loaded:
        # bag-LPT sends job 1 there, so it reroutes to machine 1.
        instance = Instance.from_sizes([0.9, 0.1, 0.05], bags=[0, 0, 1], num_machines=3)
        job_classes = classify_jobs(instance, 0.5, k=1)
        assert job_classes.large == {0}
        occupancy = _assert_section_c_matches_the_job_walk(
            instance, job_classes, frozenset(), {0: [0, 1, 2]}, [0.0, 0.2, 0.3], {0: 0}
        )
        assert occupancy.assignment == {0: 0, 1: 1, 2: 0}


class TestRepair:
    def test_repair_fixes_artificial_conflicts(self):
        """Directly exercise Lemma-11 repair on a hand-built conflicted schedule."""
        # bag 0: one large and one small job; bag 1/2: filler-ish independent jobs
        instance = Instance.from_sizes(
            [0.6, 0.1, 0.55, 0.5, 0.1], bags=[0, 0, 1, 2, 3], num_machines=3
        )
        job_classes = classify_jobs(instance, 0.5, k=1)
        schedule = Schedule(instance)
        # Machine 0 gets both bag-0 jobs -> conflict.
        schedule.assign_many([(0, 0), (1, 0), (2, 1), (3, 2), (4, 1)])
        assert not schedule.is_conflict_free()
        origin = {0: 2}  # the MILP "origin" of the large job is machine 2
        diagnostics = resolve_conflicts(instance, schedule, job_classes, origin)
        assert schedule.is_conflict_free()
        assert diagnostics.conflicts_found >= 1

    def test_repair_uses_origin_chain_when_free(self):
        instance = Instance.from_sizes(
            [0.6, 0.1, 0.4], bags=[0, 0, 1], num_machines=3
        )
        job_classes = classify_jobs(instance, 0.5, k=1)
        schedule = Schedule(instance)
        schedule.assign_many([(0, 0), (1, 0), (2, 1)])
        origin = {0: 2}  # machine 2 is free of bag 0
        diagnostics = resolve_conflicts(instance, schedule, job_classes, origin)
        assert diagnostics.resolved_by_origin_chain == 1
        assert schedule.machine_of(1) == 2

    def test_repair_falls_back_without_origin(self):
        instance = Instance.from_sizes(
            [0.6, 0.1, 0.4], bags=[0, 0, 1], num_machines=2
        )
        job_classes = classify_jobs(instance, 0.5, k=1)
        schedule = Schedule(instance)
        schedule.assign_many([(0, 0), (1, 0), (2, 1)])
        diagnostics = resolve_conflicts(instance, schedule, job_classes, origin={})
        assert schedule.is_conflict_free()
        assert diagnostics.resolved_by_fallback == 1

    def test_repair_noop_on_feasible_schedule(self):
        instance = Instance.from_sizes([0.6, 0.1], bags=[0, 0], num_machines=2)
        job_classes = classify_jobs(instance, 0.5, k=1)
        schedule = Schedule(instance).assign_many([(0, 0), (1, 1)])
        diagnostics = resolve_conflicts(instance, schedule, job_classes, origin={})
        assert diagnostics.conflicts_found == 0
