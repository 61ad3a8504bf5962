"""Experiment drivers: one function per experiment listed in DESIGN.md.

Each driver returns an :class:`~repro.experiments.tables.ExperimentTable`.
Every driver takes a ``quick`` flag: the benchmark harness runs the quick
variant (seconds), ``python -m repro experiments`` can run the full variant
(minutes).  The experiment identifiers (E1…E10) match DESIGN.md and
EXPERIMENTS.md.

Since the introduction of :mod:`repro.orchestration`, the experiment logic
itself lives in declarative specs (:mod:`repro.orchestration.grids`): a
parameter grid, a per-cell function and an optional reduction.  The driver
functions here are thin synchronous wrappers that expand and execute the
spec in-process (:func:`repro.orchestration.registry.run_spec_inline`), so
``experiment_e1_figure1_placement()`` and a parallel, store-backed
``repro orch run e1`` produce identical tables.
"""

from __future__ import annotations

from typing import Callable

from .tables import ExperimentTable

__all__ = [
    "experiment_e1_figure1_placement",
    "experiment_e2_approximation_ratio",
    "experiment_e3_scaling_with_n",
    "experiment_e4_epsilon_tradeoff",
    "experiment_e5_transformation_overhead",
    "experiment_e6_medium_reinsertion",
    "experiment_e7_milp_size",
    "experiment_e8_repair_statistics",
    "experiment_e9_fault_tolerance",
    "experiment_e10_ablation",
    "EXPERIMENTS",
    "run_experiment",
]


def _make_driver(name: str) -> Callable[..., ExperimentTable]:
    def driver(*, quick: bool = True, seed: int = 0) -> ExperimentTable:
        # Imported lazily: ``repro.orchestration.registry`` imports this
        # package's ``tables`` module, so a module-level import here would
        # close an import cycle through ``repro.experiments.__init__``.
        from ..orchestration.registry import get_spec, run_spec_inline

        return run_spec_inline(get_spec(name), quick=quick, seed=seed)

    driver.__name__ = f"experiment_{name}"
    driver.__qualname__ = driver.__name__
    driver.__doc__ = f"Run experiment {name.upper()} in-process and return its table."
    return driver


experiment_e1_figure1_placement = _make_driver("e1")
experiment_e2_approximation_ratio = _make_driver("e2")
experiment_e3_scaling_with_n = _make_driver("e3")
experiment_e4_epsilon_tradeoff = _make_driver("e4")
experiment_e5_transformation_overhead = _make_driver("e5")
experiment_e6_medium_reinsertion = _make_driver("e6")
experiment_e7_milp_size = _make_driver("e7")
experiment_e8_repair_statistics = _make_driver("e8")
experiment_e9_fault_tolerance = _make_driver("e9")
experiment_e10_ablation = _make_driver("e10")


EXPERIMENTS: dict[str, Callable[..., ExperimentTable]] = {
    "E1": experiment_e1_figure1_placement,
    "E2": experiment_e2_approximation_ratio,
    "E3": experiment_e3_scaling_with_n,
    "E4": experiment_e4_epsilon_tradeoff,
    "E5": experiment_e5_transformation_overhead,
    "E6": experiment_e6_medium_reinsertion,
    "E7": experiment_e7_milp_size,
    "E8": experiment_e8_repair_statistics,
    "E9": experiment_e9_fault_tolerance,
    "E10": experiment_e10_ablation,
}


def run_experiment(experiment_id: str, *, quick: bool = True, seed: int = 0) -> ExperimentTable:
    """Run a single experiment by identifier (``"E1"`` … ``"E10"``)."""
    try:
        driver = EXPERIMENTS[experiment_id.upper()]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from exc
    return driver(quick=quick, seed=seed)
