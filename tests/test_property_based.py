"""Property-based tests (hypothesis) for core invariants.

Strategies generate random bag-constrained instances (always satisfiable:
no bag exceeds the machine count) and random flow networks; the properties
are the invariants the paper's correctness argument rests on.
"""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.baselines import bag_lpt, greedy_schedule, lpt_schedule
from repro.bounds import combined_lower_bound
from repro.core import Instance, Job
from repro.eptas import (
    classify_bags,
    classify_jobs,
    compute_k,
    round_up_to_power,
    transform_instance,
)
from repro.exact import brute_force_optimum
from repro.flows import max_flow
from repro.generators import uniform_random_instance

from helpers import lpt_bag


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def instances(draw, max_jobs: int = 16, max_machines: int = 5):
    """A random satisfiable bag-constrained instance."""
    num_machines = draw(st.integers(min_value=1, max_value=max_machines))
    num_jobs = draw(st.integers(min_value=1, max_value=max_jobs))
    num_bags = draw(st.integers(min_value=1, max_value=max(1, num_jobs)))
    sizes = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False, allow_infinity=False),
            min_size=num_jobs,
            max_size=num_jobs,
        )
    )
    # Round-robin over bags caps every bag at ceil(n / b) <= machines when
    # possible; otherwise enlarge the bag pool.
    while math.ceil(num_jobs / num_bags) > num_machines:
        num_bags += 1
    bags = [index % num_bags for index in range(num_jobs)]
    return Instance.from_sizes(sizes, bags, num_machines, name="hypothesis")


@st.composite
def tiny_instances(draw):
    """Instances small enough for the brute-force optimum."""
    return draw(instances(max_jobs=9, max_machines=3))


# ----------------------------------------------------------------------
# Scheduling invariants
# ----------------------------------------------------------------------
@given(instances())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_greedy_and_lpt_always_feasible(instance):
    for result in (greedy_schedule(instance), lpt_schedule(instance)):
        report = result.schedule.validation_report()
        assert report.is_feasible
        assert result.makespan >= combined_lower_bound(instance) - 1e-9


@given(tiny_instances())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_lower_bounds_never_exceed_optimum(instance):
    optimum = brute_force_optimum(instance)
    assert combined_lower_bound(instance) <= optimum + 1e-6


@given(tiny_instances())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_greedy_within_factor_two_of_optimum(instance):
    optimum = brute_force_optimum(instance)
    result = lpt_schedule(instance)
    assert result.makespan <= 2.0 * optimum + 1e-6


# ----------------------------------------------------------------------
# bag-LPT (Lemma 8)
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=6),
    st.lists(
        st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=0, max_size=6),
        min_size=1,
        max_size=5,
    ),
    st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=80, deadline=None)
def test_bag_lpt_lemma8_properties(num_machines, raw_bags, start_height):
    machines = list(range(num_machines))
    bags = []
    job_id = 0
    for raw in raw_bags:
        bag = []
        for size in raw[:num_machines]:
            bag.append(Job(id=job_id, size=float(size), bag=0))
            job_id += 1
        bags.append(bag)
    loads = {machine: start_height for machine in machines}
    result = bag_lpt(machines, loads, [lpt_bag(bag) for bag in bags])
    all_jobs = [job for bag in bags for job in bag]
    if not all_jobs:
        return
    p_max = max(job.size for job in all_jobs)
    area = sum(job.size for job in all_jobs)
    # Lemma 8 part 1: spread bounded by the largest job.
    assert result.spread() <= p_max + 1e-9
    # Lemma 8 part 2: highest machine bounded by h + area/m' + p_max.
    assert result.max_load() <= start_height + area / num_machines + p_max + 1e-9
    # Per-bag separation: jobs of one bag land on distinct machines.
    for bag in bags:
        machines_used = [result.assignment[job.id] for job in bag]
        assert len(machines_used) == len(set(machines_used))


# ----------------------------------------------------------------------
# Rounding and classification
# ----------------------------------------------------------------------
@given(
    st.floats(min_value=1e-6, max_value=100.0),
    st.sampled_from([1.0, 0.5, 0.25, 0.2]),
)
def test_round_up_to_power_properties(size, eps):
    rounded = round_up_to_power(size, eps)
    assert rounded >= size - 1e-12
    assert rounded <= size * (1 + eps) * (1 + 1e-9)
    exponent = math.log(rounded, 1 + eps)
    assert abs(exponent - round(exponent)) < 1e-6


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.5, 0.25]))
@settings(max_examples=40, deadline=None)
def test_lemma1_window_within_budget_for_normalised_instances(seed, eps):
    raw = uniform_random_instance(
        num_jobs=24, num_machines=4, num_bags=8, size_range=(0.01, 1.0), seed=seed
    ).instance
    # Normalise so total work equals m (i.e. the area bound is 1): the Lemma-1
    # pigeonhole argument then guarantees a window of mass <= eps^2 * m.
    instance = raw.scaled(raw.num_machines / raw.total_work)
    k = compute_k(instance, eps)
    window_mass = sum(
        job.size for job in instance.jobs if eps ** (k + 1) <= job.size < eps**k
    )
    assert window_mass <= eps**2 * instance.num_machines + 1e-9


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_transformation_preserves_job_identity_and_counts(seed):
    eps = 0.25
    raw = uniform_random_instance(
        num_jobs=20, num_machines=4, num_bags=8, size_range=(0.01, 1.0), seed=seed
    ).instance
    instance = raw.scaled(raw.num_machines / raw.total_work)
    job_classes = classify_jobs(instance, eps)
    bag_classes = classify_bags(instance, job_classes, practical_priority_cap=1)
    record = transform_instance(instance, job_classes, bag_classes)
    # Every original job appears in the augmented instance exactly once, with
    # its original size.
    for job in instance.jobs:
        assert job.id in record.augmented
        assert record.augmented.job(job.id).size == pytest.approx(job.size)
    # Fillers only add jobs; they never remove small jobs.
    original_small = {job.id for job in instance.jobs if job.id in job_classes.small}
    for job_id in original_small:
        assert job_id in record.transformed
    # The transformed instance never has more jobs than 2n (paper: factor 2).
    assert record.transformed.num_jobs <= 2 * instance.num_jobs


# ----------------------------------------------------------------------
# Flow substrate
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=1, max_value=8),
        ),
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=60, deadline=None)
def test_max_flow_matches_networkx(edge_list):
    edges = [(u, v, c) for u, v, c in edge_list if u != v]
    assume(edges)
    source, sink = 0, 7
    graph = nx.DiGraph()
    graph.add_node(source)
    graph.add_node(sink)
    for u, v, capacity in edges:
        if graph.has_edge(u, v):
            graph[u][v]["capacity"] += capacity
        else:
            graph.add_edge(u, v, capacity=capacity)
    expected = nx.maximum_flow_value(graph, source, sink)
    result = max_flow(edges, source, sink)
    assert result.value == expected
