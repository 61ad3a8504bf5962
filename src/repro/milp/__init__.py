"""MILP/LP substrate: model builder, HiGHS backend, own branch and bound.

The paper's EPTAS solves a configuration MILP with a constant number of
integral variables using the Kannan/Lenstra fixed-dimension algorithm.  This
package substitutes two interchangeable exact oracles:

* :func:`repro.milp.scipy_backend.solve_with_scipy` — HiGHS via scipy.
* :func:`repro.milp.branch_and_bound.solve_with_branch_and_bound` — a
  from-scratch LP-based branch and bound.

Backend selection, validation and dispatch live in :mod:`repro.solver`
(see ``docs/solver-backends.md``): backends register against a pluggable
registry, and every solve flows through the :class:`repro.solver.SolverService`
facade.  :func:`solve_model` remains as a thin convenience shim over that service.
"""

from __future__ import annotations

from .model import (
    CompiledModel,
    Constraint,
    LinearModel,
    MilpSolution,
    Sense,
    SolutionStatus,
    SolveTelemetry,
    Variable,
    VarType,
)
from .scipy_backend import solve_lp_relaxation, solve_with_scipy
from .branch_and_bound import BranchAndBoundConfig, solve_with_branch_and_bound

__all__ = [
    "BranchAndBoundConfig",
    "CompiledModel",
    "Constraint",
    "LinearModel",
    "MilpSolution",
    "Sense",
    "SolutionStatus",
    "SolveTelemetry",
    "VarType",
    "Variable",
    "solve_lp_relaxation",
    "solve_model",
    "solve_with_branch_and_bound",
    "solve_with_scipy",
]


def solve_model(
    model: LinearModel | CompiledModel,
    *,
    backend: "str | object" = "scipy",
    time_limit: float | None = None,
    mip_rel_gap: float = 0.0,
    bnb_config: BranchAndBoundConfig | None = None,
) -> MilpSolution:
    """Solve a model through the current :class:`repro.solver.SolverService`.

    Parameters
    ----------
    backend:
        A backend name registered with :func:`repro.solver.register_backend`
        (builtin: ``"scipy"`` — HiGHS, the default —, ``"bnb"`` — own branch
        and bound —, ``"lp"`` — LP relaxation only) or a full
        :class:`repro.solver.BackendSpec`.
    bnb_config:
        Legacy convenience: folded into the spec's options for the ``bnb``
        backend.
    """
    from dataclasses import asdict

    from ..solver import BackendSpec, get_solver_service

    spec = BackendSpec.coerce(backend)
    if bnb_config is not None and spec.name == "bnb":
        spec = spec.with_options(**asdict(bnb_config))
    return get_solver_service().solve(
        model, spec=spec, time_limit=time_limit, mip_rel_gap=mip_rel_gap
    )
