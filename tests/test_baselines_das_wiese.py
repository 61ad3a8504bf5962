"""Unit tests for the Das–Wiese-style configuration-ILP baseline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DasWieseConfig, das_wiese, das_wiese_schedule
from repro.baselines.das_wiese import (
    _configuration_ilp,
    _enumerate_configurations,
    _rounded_size,
)
from repro.bounds import combined_lower_bound
from repro.core import Instance
from repro.core.errors import SolverLimitError
from repro.exact import exact_milp_schedule
from repro.generators import (
    bag_heavy_instance,
    figure1_adversarial_instance,
    uniform_random_instance,
)
from repro.milp import LinearModel, Sense

from helpers import assert_feasible, assert_same_model, build_model


class TestHelpers:
    def test_rounded_size_is_power_and_upper_bound(self):
        eps = 0.25
        for size in (0.3, 0.5, 0.77, 1.0, 2.3):
            rounded = _rounded_size(size, eps)
            assert rounded >= size - 1e-12
            assert rounded <= size * (1 + eps) + 1e-12

    def test_rounded_size_zero(self):
        assert _rounded_size(0.0, 0.5) == 0.0

    def test_enumerate_configurations_respects_bags_and_capacity(self):
        groups = [(0, 0.6, 2), (0, 0.4, 1), (1, 0.5, 3)]
        configs = list(_enumerate_configurations(groups, 1.0, max_configurations=1000))
        for counts, height in configs:
            assert height <= 1.0 + 1e-9
            # at most one job per bag
            assert counts[0] + counts[1] <= 1
        # the empty configuration is present
        assert any(sum(counts) == 0 for counts, _ in configs)

    def test_enumeration_limit(self):
        groups = [(bag, 0.01, 5) for bag in range(20)]
        with pytest.raises(SolverLimitError):
            list(_enumerate_configurations(groups, 10.0, max_configurations=50))


class TestDasWieseScheduler:
    def test_feasible_and_near_optimal_on_figure1(self):
        instance = figure1_adversarial_instance(num_machines=4).instance
        result = das_wiese_schedule(instance, eps=0.25)
        assert_feasible(result.schedule)
        assert result.makespan <= (1 + 3 * 0.25) * 1.0 + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_feasible_on_random_instances(self, seed):
        instance = uniform_random_instance(
            num_jobs=16, num_machines=4, num_bags=6, seed=seed
        ).instance
        result = das_wiese_schedule(instance, eps=0.3)
        assert_feasible(result.schedule)
        assert result.makespan <= 2.0 * combined_lower_bound(instance) + 1e-9

    def test_quality_against_exact(self):
        instance = uniform_random_instance(
            num_jobs=14, num_machines=3, num_bags=5, seed=5
        ).instance
        optimum = exact_milp_schedule(instance).makespan
        result = das_wiese_schedule(instance, eps=0.25)
        # PTAS guarantee with the documented constant (1 + O(eps)).
        assert result.makespan <= (1 + 4 * 0.25) * optimum + 1e-9

    def test_diagnostics_and_params(self):
        instance = figure1_adversarial_instance(num_machines=3).instance
        result = das_wiese_schedule(instance, eps=0.5)
        assert result.params["eps"] == 0.5
        assert "search_iterations" in result.diagnostics

    def test_config_eps_is_used_without_an_explicit_eps(self, monkeypatch):
        instance = figure1_adversarial_instance(num_machines=3).instance
        seen: list[float] = []
        try_build = das_wiese._try_build_schedule

        def spy(instance, target, config):
            seen.append(config.eps)
            return try_build(instance, target, config)

        monkeypatch.setattr(das_wiese, "_try_build_schedule", spy)
        result = das_wiese_schedule(instance, config=DasWieseConfig(eps=0.5))
        assert result.params == {"eps": 0.5}
        assert seen and set(seen) == {0.5}
        # An explicit eps overrides the config's; without either it is 1/4.
        overridden = das_wiese_schedule(instance, eps=0.3, config=DasWieseConfig(eps=0.5))
        assert overridden.params == {"eps": 0.3}
        assert das_wiese_schedule(instance).params == {"eps": 0.25}


# ----------------------------------------------------------------------
# Oracle: the configuration ILP built by name, one dict per row.
# ----------------------------------------------------------------------
def _configuration_ilp_by_name(
    configurations, groups, num_machines, capacity, small_area
) -> LinearModel:
    columns = {f"x_{index}": {"integer": True} for index in range(len(configurations))}
    every = {f"x_{index}": 1.0 for index in range(len(configurations))}
    rows = [("machines", Sense.LE, every, float(num_machines))]
    for group_index, (_, _, available) in enumerate(groups):
        coefficients = {
            f"x_{index}": float(counts[group_index])
            for index, (counts, _) in enumerate(configurations)
            if counts[group_index] > 0
        }
        rows.append((f"cover_{group_index}", Sense.GE, coefficients, float(available)))
    if small_area > 0:
        headroom = {
            f"x_{index}": capacity - height for index, (_, height) in enumerate(configurations)
        }
        rows.append(("small_area", Sense.GE, headroom, small_area))
    rows.append(("use_machines", Sense.GE, every, float(num_machines)))
    return build_model(columns, rows, name="das-wiese")


@pytest.mark.parametrize(
    "instance",
    [
        Instance.from_sizes([0.5, 0.3, 0.1], bags=[0, 1, 2], num_machines=1, name="one-machine"),
        Instance.from_sizes([0.4, 0.6, 0.2], bags=[0, 0, 1], num_machines=2, name="bag-of-one"),
        Instance.from_sizes([0.7], bags=[0], num_machines=3, name="single-job"),
        figure1_adversarial_instance(num_machines=4).instance,
        bag_heavy_instance(num_machines=4, num_full_bags=2, extra_jobs=6, seed=1).instance,
    ],
    ids=lambda instance: instance.name,
)
def test_configuration_ilp_matches_the_by_name_builder(instance, monkeypatch):
    """Every ILP of the search equals the one built by name, byte for byte."""
    calls: list[tuple[tuple, LinearModel]] = []

    def spy(*args):
        model = _configuration_ilp(*args)
        calls.append((args, model))
        return model

    monkeypatch.setattr(das_wiese, "_configuration_ilp", spy)
    das_wiese_schedule(instance, eps=0.25)
    assert calls
    for args, model in calls:
        assert_same_model(model, _configuration_ilp_by_name(*args))


@st.composite
def _ilp_inputs(draw):
    groups = draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.floats(0.05, 1.0), st.integers(1, 3)),
            max_size=6,
        )
    )
    capacity = draw(st.floats(0.5, 2.5))
    configurations = list(_enumerate_configurations(groups, capacity, 10_000))
    small_area = draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0)))
    return configurations, groups, draw(st.integers(1, 5)), capacity, small_area


@settings(max_examples=150, deadline=None)
@given(inputs=_ilp_inputs())
def test_configuration_ilp_matches_the_by_name_builder_on_drawn_inputs(inputs):
    assert_same_model(_configuration_ilp(*inputs), _configuration_ilp_by_name(*inputs))
