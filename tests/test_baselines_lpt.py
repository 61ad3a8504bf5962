"""Unit tests for the LPT family: LPT, bag-LPT, group-bag-LPT (paper §4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import bag_lpt, group_bag_lpt, lpt_schedule
from repro.core import Job
from repro.core.errors import AlgorithmError

from helpers import (
    assert_feasible,
    lpt_bag,
    make_jobs,
    reference_bag_lpt,
    reference_group_bag_lpt,
)


class TestLptSchedule:
    def test_feasible_and_reasonable(self, uniform_instance, figure1_instance):
        for instance in (uniform_instance, figure1_instance):
            result = lpt_schedule(instance)
            assert_feasible(result.schedule)

    def test_lpt_solves_figure1_optimally(self, figure1_instance):
        assert lpt_schedule(figure1_instance).makespan == pytest.approx(1.0)

    def test_plain_lpt_bound(self, singleton_bags_instance):
        # Without bag constraints LPT is a 4/3-approximation; optimum is 6.
        result = lpt_schedule(singleton_bags_instance)
        assert result.makespan <= 4 / 3 * 6 + 1e-9


class TestBagLpt:
    def test_lemma8_spread_bound(self):
        """Lemma 8: final loads differ by at most the largest job size."""
        machines = [0, 1, 2, 3]
        loads = {m: 1.0 for m in machines}
        bags = [
            make_jobs((0.5, 0), (0.4, 0), (0.3, 0), (0.2, 0)),
            [Job(id=10 + i, size=0.3, bag=1) for i in range(4)],
        ]
        result = bag_lpt(machines, loads, [lpt_bag(bag) for bag in bags])
        p_max = 0.5
        assert result.spread() <= p_max + 1e-9

    def test_lemma8_average_bound(self):
        """Lemma 8: max load <= h + area/m' + p_max on equal-height machines."""
        machines = list(range(5))
        h = 2.0
        loads = {m: h for m in machines}
        bags = [
            [Job(id=i, size=0.2 + 0.05 * i, bag=0) for i in range(5)],
            [Job(id=10 + i, size=0.1, bag=1) for i in range(5)],
        ]
        area = sum(job.size for bag in bags for job in bag)
        p_max = max(job.size for bag in bags for job in bag)
        result = bag_lpt(machines, loads, [lpt_bag(bag) for bag in bags])
        assert result.max_load() <= h + area / len(machines) + p_max + 1e-9

    def test_jobs_of_one_bag_on_distinct_machines(self):
        machines = ["a", "b", "c"]
        bags = [make_jobs((1.0, 0), (0.5, 0), (0.25, 0))]
        result = bag_lpt(machines, {}, [lpt_bag(bag) for bag in bags])
        assert len(set(result.assignment.values())) == 3

    def test_largest_job_to_least_loaded_machine(self):
        machines = [0, 1]
        loads = {0: 5.0, 1: 1.0}
        bags = [make_jobs((3.0, 0), (1.0, 0))]
        result = bag_lpt(machines, loads, [lpt_bag(bag) for bag in bags])
        jobs = {job.id: job for bag in bags for job in bag}
        big = next(j for j in jobs.values() if j.size == 3.0)
        assert result.assignment[big.id] == 1

    def test_bag_larger_than_group_rejected(self):
        with pytest.raises(AlgorithmError):
            bag_lpt([0], {}, [lpt_bag(make_jobs((1.0, 0), (1.0, 0)))])

    def test_no_machines_no_jobs(self):
        result = bag_lpt([], {}, [])
        assert result.assignment == {}
        assert result.spread() == 0.0

    def test_no_machines_with_jobs_rejected(self):
        with pytest.raises(AlgorithmError):
            bag_lpt([], {}, [lpt_bag(make_jobs((1.0, 0)))])


class TestGroupBagLpt:
    def test_routing_respects_group_sizes(self):
        group_sizes = {0: 2, 1: 3}
        group_loads = {0: 1.0, 1: 0.5}
        bags = [make_jobs((0.9, 0), (0.8, 0), (0.7, 0), (0.6, 0), (0.5, 0))]
        routed = group_bag_lpt(group_sizes, group_loads, _by_bag(bags))
        jobs_per_group = _ids_per_group(routed)
        assert len(jobs_per_group[0]) <= 2
        assert len(jobs_per_group[1]) <= 3
        total = sum(len(jobs) for jobs in jobs_per_group.values())
        assert total == 5

    def test_largest_jobs_go_to_least_loaded_group(self):
        group_sizes = {0: 2, 1: 2}
        group_loads = {0: 5.0, 1: 0.0}
        bags = [make_jobs((4.0, 0), (3.0, 0), (2.0, 0), (1.0, 0))]
        routed = group_bag_lpt(group_sizes, group_loads, _by_bag(bags))
        sizes_group1 = sorted(
            size for _, sizes in routed.bags_per_group[1].values() for size in sizes
        )
        assert sizes_group1 == [3.0, 4.0]

    def test_area_tracking(self):
        group_sizes = {0: 2}
        bags = [make_jobs((1.0, 0), (2.0, 0))]
        routed = group_bag_lpt(group_sizes, {0: 0.0}, _by_bag(bags))
        assert routed.area_per_group[0] == pytest.approx(3.0)

    def test_bag_exceeding_total_capacity_rejected(self):
        with pytest.raises(AlgorithmError):
            group_bag_lpt({0: 1}, {0: 0.0}, _by_bag([make_jobs((1.0, 0), (1.0, 0))]))


def _by_bag(bags: list[list[Job]]) -> dict[int, tuple[list[int], list[float]]]:
    """Bags of jobs as group-bag-LPT takes them, keyed by their position."""
    return {position: lpt_bag(bag) for position, bag in enumerate(bags)}


def _ids_per_group(routed) -> dict[int, list[int]]:
    """Every job id routed to each group, bag by bag."""
    return {
        group: [job_id for job_ids, _ in chunks.values() for job_id in job_ids]
        for group, chunks in routed.bags_per_group.items()
    }


@st.composite
def _job_bags(draw, max_jobs: int = 6) -> list[list[Job]]:
    """Up to six bags of jobs with distinct ids in a random order and tied
    sizes (zero included)."""
    size = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 2.0))
    counts = draw(st.lists(st.integers(0, max_jobs), min_size=1, max_size=6))
    ids = iter(draw(st.permutations(range(sum(counts)))))
    return [
        [Job(id=next(ids), size=draw(size), bag=position) for _ in range(count)]
        for position, count in enumerate(counts)
    ]


class TestMatchesJobReference:
    """The id-and-size kernels give what the Job-based bag-LPT and
    group-bag-LPT gave: the same assignment in the same order, the same
    loads and chunks, float for float."""

    @settings(max_examples=200, deadline=None)
    @given(_job_bags(), st.data())
    def test_bag_lpt(self, bags, data):
        machines = data.draw(
            st.permutations(range(max(6, *map(len, bags))))
        )  # labels 0..m-1 in a random order, so ties reach "10" < "2"
        machines = [machine * 5 for machine in machines]
        loads = {
            machine: data.draw(st.sampled_from([0.0, 0.5, 1.0])) for machine in machines
        }
        result = bag_lpt(machines, loads, [lpt_bag(bag) for bag in bags])
        assignment, expected_loads = reference_bag_lpt(machines, loads, bags)
        assert list(result.assignment.items()) == list(assignment.items())
        assert repr(result.loads) == repr(expected_loads)

    @settings(max_examples=200, deadline=None)
    @given(_job_bags(), st.data())
    def test_group_bag_lpt(self, bags, data):
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        group_sizes = dict(enumerate(sizes))
        if max(map(len, bags)) > sum(sizes):
            group_sizes[len(sizes)] = max(map(len, bags))
        averages = {
            group: data.draw(st.sampled_from([0.0, 0.5, 1.0])) for group in group_sizes
        }
        routed = group_bag_lpt(group_sizes, averages, _by_bag(bags))
        chunks, areas = reference_group_bag_lpt(group_sizes, averages, bags)
        assert {
            group: [(list(job_ids), list(sizes)) for job_ids, sizes in per_bag.values()]
            for group, per_bag in routed.bags_per_group.items()
        } == {
            group: [
                ([job.id for job in chunk], [job.size for job in chunk]) for chunk in per_group
            ]
            for group, per_group in chunks.items()
        }
        assert repr(routed.area_per_group) == repr(areas)
