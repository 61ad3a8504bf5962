"""Experiment harness: tables, drivers and the E1…E10 registry (see DESIGN.md)."""

from .tables import ExperimentTable
from .drivers import (
    EXPERIMENTS,
    experiment_e1_figure1_placement,
    experiment_e2_approximation_ratio,
    experiment_e3_scaling_with_n,
    experiment_e4_epsilon_tradeoff,
    experiment_e5_transformation_overhead,
    experiment_e6_medium_reinsertion,
    experiment_e7_milp_size,
    experiment_e8_repair_statistics,
    experiment_e9_fault_tolerance,
    experiment_e10_ablation,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentTable",
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
    "run_experiment",
]
