"""Pluggable solver service layer (see docs/solver-backends.md).

Two pieces:

* :mod:`repro.solver.registry` — the :class:`SolverBackend` protocol, the
  process-global backend registry (``register_backend`` /
  ``resolve_backend``) and validated :class:`BackendSpec` references with
  cache fingerprints.
* :mod:`repro.solver.service` — the :class:`SolverService` facade the whole
  repository calls through; it solves inline and attaches uniform telemetry
  to every solution.  :func:`service_scope` installs a substitute service
  for a scope.

:func:`repro.milp.solve_model` is a thin shim over this package; no other
call site dispatches on raw backend strings.
"""

from __future__ import annotations

from .registry import (
    BackendSpec,
    SolverBackend,
    available_backends,
    backend_fingerprint,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from .service import SolverService, get_solver_service, service_scope

__all__ = [
    "BackendSpec",
    "SolverBackend",
    "SolverService",
    "available_backends",
    "backend_fingerprint",
    "get_solver_service",
    "register_backend",
    "resolve_backend",
    "service_scope",
    "unregister_backend",
]
