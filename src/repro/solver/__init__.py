"""Solver service layer over the three builtin MILP backends.

Two pieces (see docs/solver-backends.md):

* :mod:`repro.solver.registry` — the closed backend table (``scipy``,
  ``bnb``, ``lp``) and validated :class:`BackendSpec` references to it,
  with their cache fingerprints.
* :mod:`repro.solver.service` — the :class:`SolverService` facade the whole
  repository calls through; it solves inline and counts every solve.
  :func:`service_scope` installs a substitute service for a scope, the one
  way to substitute a solver.

No call site dispatches on raw backend strings.
"""

from __future__ import annotations

from .registry import BackendSpec, backend_fingerprint
from .service import SolverService, get_solver_service, service_scope

__all__ = [
    "BackendSpec",
    "SolverService",
    "backend_fingerprint",
    "get_solver_service",
    "service_scope",
]
