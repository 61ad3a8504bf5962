"""SolverService: the single facade every MILP call site goes through.

The service resolves a :class:`~repro.solver.registry.BackendSpec` against
the backend registry, runs the solve inline, and attaches uniform
:class:`~repro.milp.model.SolveTelemetry` (wall time, status, backend
fingerprint) to every returned :class:`~repro.milp.model.MilpSolution`.

A process-global *current service* lets a caller substitute its own service
without threading it through every config object: :func:`service_scope`
installs one for a scope, and every solve inside picks it up through
:func:`get_solver_service`.  The EPTAS configuration MILPs, exact assignment
MILPs and the Das–Wiese ILP are all single :meth:`SolverService.solve`
calls.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from ..milp.model import LinearModel, CompiledModel, MilpSolution, SolveTelemetry
from .registry import BackendSpec, backend_fingerprint, resolve_backend

__all__ = ["SolverService", "get_solver_service", "service_scope"]


class SolverService:
    """Facade over the backend registry that counts what it solves."""

    def __init__(self) -> None:
        self._stats: dict[str, Any] = {
            "solves": 0,
            "wall_time": 0.0,
            "solve_s": 0.0,
            "backends": {},
        }

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        model: LinearModel | CompiledModel,
        *,
        spec: BackendSpec | str = "scipy",
        time_limit: float | None = None,
        mip_rel_gap: float = 0.0,
    ) -> MilpSolution:
        """Solve one model inline in this process."""
        backend_spec = BackendSpec.coerce(spec)
        started = time.perf_counter()
        backend = resolve_backend(backend_spec.name)
        compiled = model.compile() if isinstance(model, LinearModel) else model
        solution = backend.solve(
            compiled,
            time_limit=time_limit,
            mip_rel_gap=mip_rel_gap,
            options=backend_spec.options_dict(),
        )
        self._finish(solution, backend_spec, time.perf_counter() - started)
        return solution

    def _finish(self, solution: MilpSolution, spec: BackendSpec, wall_time: float) -> None:
        # The solve ran in this very call, so its wall clock *is* the solve
        # time and nothing ever queued or crossed a wire.
        fingerprint = backend_fingerprint(spec)
        solution.telemetry = SolveTelemetry(
            backend=spec.name,
            fingerprint=fingerprint,
            wall_time=float(wall_time),
            status=solution.status.value,
            queue_wait_s=0.0,
            solve_s=float(wall_time),
        )
        self._stats["solves"] += 1
        self._stats["wall_time"] += float(wall_time)
        self._stats["solve_s"] += float(wall_time)
        per_backend = self._stats["backends"]
        per_backend[fingerprint] = per_backend.get(fingerprint, 0) + 1

    # ------------------------------------------------------------------
    # Telemetry counters (per process, per service)
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "solves": self._stats["solves"],
            "wall_time": self._stats["wall_time"],
            "solve_s": self._stats["solve_s"],
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
            "solve_s": now["solve_s"] - before.get("solve_s", 0.0),
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
