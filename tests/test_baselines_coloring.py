"""Unit tests for the coloring-based 2-approximation baseline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.baselines import coloring_schedule
from repro.baselines.coloring import color_classes, greedy_clique_coloring
from repro.bounds import combined_lower_bound
from repro.core import Instance, InvalidInstanceError, Schedule
from repro.generators import bag_heavy_instance, uniform_random_instance

from helpers import assert_feasible, drawn_instances


def test_greedy_coloring_is_valid(uniform_instance):
    coloring = greedy_clique_coloring(uniform_instance)
    assert len(coloring) == uniform_instance.num_jobs
    for members in uniform_instance.bags().values():
        colors = [coloring[job.id] for job in members]
        assert len(set(colors)) == len(colors)


def test_coloring_uses_chromatic_number_colors(full_bag_instance):
    coloring = greedy_clique_coloring(full_bag_instance)
    used = len(set(coloring.values()))
    assert used == max(full_bag_instance.bag_sizes().values()) == 3


def test_color_classes_partition(uniform_instance):
    coloring = greedy_clique_coloring(uniform_instance)
    classes = color_classes(coloring)
    all_ids = sorted(job_id for ids in classes.values() for job_id in ids)
    assert all_ids == sorted(coloring)


def test_feasible_on_fixtures(tiny_instance, uniform_instance, full_bag_instance):
    for instance in (tiny_instance, uniform_instance, full_bag_instance):
        result = coloring_schedule(instance)
        assert_feasible(result.schedule)


def test_figure1_solved_well(figure1_instance):
    result = coloring_schedule(figure1_instance)
    assert_feasible(result.schedule)
    assert result.makespan <= 2.0 + 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_within_twice_lower_bound(seed):
    instance = uniform_random_instance(
        num_jobs=30, num_machines=5, num_bags=8, seed=seed
    ).instance
    result = coloring_schedule(instance)
    assert result.makespan <= 2.0 * combined_lower_bound(instance) + 1e-9


def test_bag_heavy_instances(seed=0):
    instance = bag_heavy_instance(num_machines=4, num_full_bags=4, extra_jobs=6, seed=seed).instance
    result = coloring_schedule(instance)
    assert_feasible(result.schedule)
    assert result.makespan <= 2.0 * combined_lower_bound(instance) + 1e-9


def _reference_coloring(instance: Instance) -> Schedule:
    """The color-class loop with its own load list, bag sets and scan for the
    least-loaded conflict-free machine, which ``coloring_schedule`` replaced
    with ``greedy_assign`` on the color-class order."""
    classes = color_classes(greedy_clique_coloring(instance))
    schedule = Schedule(instance)
    machine_loads = [0.0] * instance.num_machines
    machine_bags: list[set[int]] = [set() for _ in range(instance.num_machines)]

    def class_area(job_ids: list[int]) -> float:
        return sum(instance.job(job_id).size for job_id in job_ids)

    ordered_classes = sorted(classes.items(), key=lambda item: (-class_area(item[1]), item[0]))
    for _, job_ids in ordered_classes:
        jobs = sorted(
            (instance.job(job_id) for job_id in job_ids), key=lambda job: (-job.size, job.id)
        )
        for job in jobs:
            candidates = [
                (machine_loads[machine], machine)
                for machine in range(instance.num_machines)
                if job.bag not in machine_bags[machine]
            ]
            if not candidates:
                raise InvalidInstanceError(f"no conflict-free machine for job {job.id}")
            _, machine = min(candidates)
            schedule.assign(job.id, machine)
            machine_loads[machine] += job.size
            machine_bags[machine].add(job.bag)
    return schedule


@settings(max_examples=200, deadline=None)
@given(drawn_instances())
def test_matches_the_color_class_loop(instance):
    result = coloring_schedule(instance)
    expected = _reference_coloring(instance)
    assert list(result.schedule.assignment.items()) == list(expected.assignment.items())
    assert result.makespan == expected.makespan()
