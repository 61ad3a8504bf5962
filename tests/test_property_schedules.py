"""Additional property-based tests: schedules, local search, simulator."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import greedy_schedule, improve_schedule, lpt_schedule
from repro.core import Schedule
from repro.generators import uniform_random_instance
from repro.simulation import ClusterSimulator


@st.composite
def random_instances(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    num_machines = draw(st.integers(min_value=2, max_value=5))
    num_bags = draw(st.integers(min_value=2, max_value=8))
    num_jobs = draw(
        st.integers(min_value=1, max_value=num_bags * num_machines)
    )
    return uniform_random_instance(
        num_jobs=num_jobs,
        num_machines=num_machines,
        num_bags=num_bags,
        seed=seed,
    ).instance


@given(random_instances())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_schedule_serialisation_roundtrip(instance):
    schedule = lpt_schedule(instance).schedule
    restored = Schedule.from_dict(instance, schedule.to_dict())
    assert restored.assignment == schedule.assignment
    assert restored.makespan() == pytest.approx(schedule.makespan())


@given(random_instances())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_local_search_never_worsens_and_stays_feasible(instance):
    schedule = greedy_schedule(instance).schedule
    before = schedule.makespan()
    stats = improve_schedule(schedule)
    assert schedule.makespan() <= before + 1e-9
    assert schedule.validation_report().is_feasible
    assert stats.final_makespan <= stats.initial_makespan + 1e-9


@given(random_instances(), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_simulator_conservation(instance, num_failures):
    schedule = lpt_schedule(instance).schedule
    simulator = ClusterSimulator(instance, schedule)
    report = simulator.run_with_random_failures(num_failures=num_failures, seed=1)
    # Every job is either completed or failed, never both.
    assert set(report.completed_jobs).isdisjoint(report.failed_jobs)
    assert len(report.completed_jobs) + len(report.failed_jobs) == instance.num_jobs
    # Bag accounting covers every bag exactly once.
    assert (
        report.bags_fully_completed
        + report.bags_partially_completed
        + report.bags_fully_lost
        == instance.num_bags
    )
    # Without failures nothing is lost.
    if num_failures == 0:
        assert report.num_failed == 0
        assert report.makespan == pytest.approx(schedule.makespan())
