"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.analysis import racecheck
from repro.core import Instance
from repro.generators import (
    figure1_adversarial_instance,
    planted_optimum_instance,
    replica_workload_instance,
    uniform_random_instance,
)


# ----------------------------------------------------------------------
# Race checker (REPRO_RACECHECK=1 runs the whole suite under it)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session", autouse=True)
def _racecheck_gate():
    """Fail the session if racecheck violations leaked past their tests.

    With ``REPRO_RACECHECK=1`` every tracked lock and store raises at the
    offending site, so violations normally fail their own test; this gate
    catches the ones raised on daemon threads (where the exception dies
    with the thread) or swallowed by broad handlers.  Tests that *seed*
    violations deliberately (``tests/test_analysis.py``) reset the global
    record behind themselves.
    """
    if racecheck.enabled():
        racecheck.reset()
    yield
    if racecheck.enabled():
        leaked = racecheck.violations()
        assert not leaked, (
            "racecheck violations recorded on paths that did not fail a "
            f"test: {[str(v) for v in leaked]}"
        )


# ----------------------------------------------------------------------
# Small hand-built instances
# ----------------------------------------------------------------------
@pytest.fixture
def tiny_instance() -> Instance:
    """4 jobs, 2 bags, 2 machines; optimum 5 (3+2 / 2+2 is infeasible by bags)."""
    return Instance.from_sizes(
        [3.0, 2.0, 2.0, 1.0], bags=[0, 0, 1, 1], num_machines=2, name="tiny"
    )


@pytest.fixture
def singleton_bags_instance() -> Instance:
    """Plain P||Cmax instance (every job in its own bag)."""
    return Instance.without_bags([4.0, 3.0, 3.0, 2.0, 2.0, 2.0], num_machines=3, name="plain")


@pytest.fixture
def full_bag_instance() -> Instance:
    """One bag with exactly m jobs: every machine must take one of them."""
    return Instance.from_sizes(
        [2.0, 2.0, 2.0, 1.0, 1.0, 1.0],
        bags=[0, 0, 0, 1, 2, 3],
        num_machines=3,
        name="full-bag",
    )


@pytest.fixture
def figure1_instance() -> Instance:
    return figure1_adversarial_instance(num_machines=4, seed=0).instance


@pytest.fixture(scope="session")
def uniform_instance() -> Instance:
    # Instances are immutable, so one copy serves the whole session and
    # module-scoped fixtures can solve it once for several tests.
    return uniform_random_instance(
        num_jobs=24, num_machines=4, num_bags=8, seed=7
    ).instance


@pytest.fixture
def replica_instance() -> Instance:
    return replica_workload_instance(num_services=8, num_machines=5, seed=3).instance


@pytest.fixture
def planted_instance():
    return planted_optimum_instance(num_machines=5, seed=11)


# ----------------------------------------------------------------------
# Helpers (canonical home: tests/helpers.py — re-exported for convenience)
# ----------------------------------------------------------------------
from helpers import assert_feasible, make_instance, make_jobs  # noqa: E402,F401
