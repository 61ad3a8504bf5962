"""SolverService: the single facade every MILP call site goes through.

The service takes a :class:`~repro.solver.registry.BackendSpec` naming one
of the three builtin backends, compiles the model once, runs the solve
inline, and counts it: solves, wall time and solves per backend
fingerprint (:meth:`SolverService.stats`).

A process-global *current service* lets a caller substitute its own service
without threading it through every config object: :func:`service_scope`
installs one for a scope, and every solve inside picks it up through
:func:`get_solver_service`.  The EPTAS configuration MILPs, the exact assignment
MILPs, the LP lower bound and the Das–Wiese ILP are all single
:meth:`SolverService.solve` calls.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from ..milp.model import LinearModel, CompiledModel, MilpSolution
from .registry import BackendSpec, backend_fingerprint

__all__ = ["SolverService", "get_solver_service", "service_scope"]


class SolverService:
    """Facade over the builtin backends that counts what it solves."""

    def __init__(self) -> None:
        self._stats: dict[str, Any] = {"solves": 0, "wall_time": 0.0, "backends": {}}

    def solve(
        self,
        model: LinearModel | CompiledModel,
        *,
        spec: BackendSpec | str = "scipy",
        time_limit: float | None = None,
    ) -> MilpSolution:
        """Solve one model inline in this process."""
        backend_spec = BackendSpec.coerce(spec)
        started = time.perf_counter()
        compiled = model.compile() if isinstance(model, LinearModel) else model
        solution = backend_spec.backend.solve(compiled, time_limit, backend_spec.options_dict())
        wall_time = time.perf_counter() - started
        self._stats["solves"] += 1
        self._stats["wall_time"] += wall_time
        per_backend = self._stats["backends"]
        fingerprint = backend_fingerprint(backend_spec)
        per_backend[fingerprint] = per_backend.get(fingerprint, 0) + 1
        return solution

    # ------------------------------------------------------------------
    # Telemetry counters (per process, per service)
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "solves": self._stats["solves"],
            "wall_time": self._stats["wall_time"],
            "backends": dict(self._stats["backends"]),
        }

    def stats_delta(self, before: dict[str, Any]) -> dict[str, Any]:
        """Difference between :meth:`stats` now and an earlier snapshot."""
        now = self.stats()
        backends = {
            fp: count - before.get("backends", {}).get(fp, 0)
            for fp, count in now["backends"].items()
            if count - before.get("backends", {}).get(fp, 0)
        }
        return {
            "solves": now["solves"] - before.get("solves", 0),
            "wall_time": now["wall_time"] - before.get("wall_time", 0.0),
            "backends": backends,
        }


_default_service = SolverService()
_current_service: SolverService = _default_service


def get_solver_service() -> SolverService:
    """The service in effect for this process."""
    return _current_service


@contextmanager
def service_scope(service: SolverService) -> Iterator[SolverService]:
    """Install ``service`` as the current one for the scope's duration."""
    global _current_service
    previous = _current_service
    _current_service = service
    try:
        yield service
    finally:
        _current_service = previous
