"""Exact reference solvers (optimum oracle for the experiments)."""

from __future__ import annotations

from ..core.instance import Instance
from ..core.result import SolverResult
from .assignment_milp import ExactMilpConfig, build_assignment_model, exact_milp_schedule
from .brute_force import BruteForceConfig, brute_force_optimum, brute_force_schedule

__all__ = [
    "BruteForceConfig",
    "ExactMilpConfig",
    "brute_force_optimum",
    "brute_force_schedule",
    "build_assignment_model",
    "exact_milp_schedule",
    "exact_schedule",
]


def exact_schedule(
    instance: Instance,
    *,
    method: str = "auto",
    milp_config: ExactMilpConfig | None = None,
    brute_config: BruteForceConfig | None = None,
) -> SolverResult:
    """Solve an instance to optimality with the most appropriate exact method.

    ``method``:
      * ``"auto"`` (default) — brute force for very small instances
        (``n <= 12``), the assignment MILP otherwise;
      * ``"milp"`` — always use the assignment MILP;
      * ``"brute"`` — always use the exhaustive search.
    """
    if method == "auto":
        method = "brute" if instance.num_jobs <= 12 else "milp"
    if method == "milp":
        return exact_milp_schedule(instance, config=milp_config)
    if method == "brute":
        return brute_force_schedule(instance, config=brute_config)
    raise ValueError(f"unknown exact method {method!r}; expected 'auto', 'milp' or 'brute'")
