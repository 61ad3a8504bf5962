"""MILP/LP substrate: model builder, HiGHS backend, own branch and bound.

The paper's EPTAS solves a configuration MILP with a constant number of
integral variables using the Kannan/Lenstra fixed-dimension algorithm.  This
package substitutes two interchangeable exact oracles:

* :func:`repro.milp.scipy_backend.solve_with_scipy` — HiGHS via scipy.
* :func:`repro.milp.branch_and_bound.solve_with_branch_and_bound` — a
  from-scratch LP-based branch and bound.

Every model is built by index with :class:`LinearModel` (column blocks and
COO row blocks) and compiled once; a :class:`MilpSolution` carries the
point ``x`` in column order.  This package is the only place that imports
:mod:`scipy.optimize`.

Backend selection, validation and dispatch live in :mod:`repro.solver`
(see ``docs/solver-backends.md``): every solve in the repository flows
through :meth:`repro.solver.SolverService.solve`, which names one of the
builtin backends ``scipy``, ``bnb`` or ``lp`` with a
:class:`repro.solver.BackendSpec`.
"""

from __future__ import annotations

from .model import CompiledModel, LinearModel, MilpSolution, Sense, SolutionStatus
from .scipy_backend import solve_lp_relaxation, solve_with_scipy
from .branch_and_bound import BranchAndBoundConfig, solve_with_branch_and_bound

__all__ = [
    "BranchAndBoundConfig",
    "CompiledModel",
    "LinearModel",
    "MilpSolution",
    "Sense",
    "SolutionStatus",
    "solve_lp_relaxation",
    "solve_with_branch_and_bound",
    "solve_with_scipy",
]
