"""SolverService: the single facade every MILP call site goes through.

The service resolves a :class:`~repro.solver.registry.BackendSpec` against
the backend registry, runs the solve either **inline** (no pool) or on the
attached :class:`~repro.solver.pool.SolverPool`, and attaches uniform
:class:`~repro.milp.model.SolveTelemetry` (wall time, status, backend
fingerprint, pooled flag) to every returned
:class:`~repro.milp.model.MilpSolution`.

A process-global *current service* makes the pool pluggable without
threading it through every config object: the orchestration worker installs
a pooled service around its claim–execute loop via
:func:`pooled_service_scope`, and every solve inside the cell picks it up
through :func:`get_solver_service`.  Only :meth:`SolverService.solve_many`
batches of two or more requests reach the pool; :meth:`SolverService.solve`
always runs inline, and the EPTAS configuration MILPs, exact assignment
MILPs and the Das–Wiese ILP are all single ``solve`` calls.

Failure semantics: a pool *hard timeout* degrades to a ``LIMIT`` solution
(exactly like an inline backend hitting its time limit) so algorithms treat
it as "guess infeasible"; a server crash that survives retries raises
:class:`~repro.solver.pool.SolverServerCrashError` — that is an
infrastructure failure worth surfacing, not a property of the model.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ..milp.model import LinearModel, CompiledModel, MilpSolution, SolutionStatus, SolveTelemetry
from .pool import SolveRequest, SolverPool, SolverPoolTimeoutError
from .registry import BackendSpec, backend_fingerprint, resolve_backend

if TYPE_CHECKING:  # pragma: no cover — import cycle at runtime
    from .fabric import SolverFabric

__all__ = [
    "SolverService",
    "get_solver_service",
    "pooled_service_scope",
    "service_scope",
    "solver_service_scope",
]


class SolverService:
    """Facade over the backend registry and an optional subprocess pool.

    ``pool`` is anything with the pool futures API — a local
    :class:`~repro.solver.pool.SolverPool` or a
    :class:`~repro.solver.fabric.SolverFabric` routing solves across remote
    endpoints; the service cannot tell them apart and does not try to.
    """

    def __init__(self, pool: "SolverPool | SolverFabric | None" = None) -> None:
        self.pool = pool
        self._stats: dict[str, Any] = {
            "solves": 0,
            "pooled_solves": 0,
            "wall_time": 0.0,
            "queue_wait_s": 0.0,
            "solve_s": 0.0,
            "wire_s": 0.0,
            "backends": {},
            "endpoints": {},
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
        """Solve one model inline (single solves never pay pool overhead)."""
        backend_spec = BackendSpec.coerce(spec)
        started = time.perf_counter()
        solution = self._solve_inline(
            model, backend_spec, time_limit=time_limit, mip_rel_gap=mip_rel_gap
        )
        self._finish(solution, backend_spec, time.perf_counter() - started, pooled=False)
        return solution

    def solve_many(
        self, requests: Sequence[SolveRequest], *, return_exceptions: bool = False
    ) -> list["MilpSolution | Exception"]:
        """Solve a batch, overlapping on the pool when one is attached.

        Results are returned in request order.  Without a pool (or for a
        single request) this degrades to sequential inline solves, so
        callers can batch unconditionally.

        With ``return_exceptions=True`` a failing solve yields its exception
        in that request's slot instead of aborting the batch — the solver
        analogue of ``asyncio.gather`` — so callers with per-item fallback
        logic never lose the rest of a batch.
        """
        requests = list(requests)
        if self.pool is None or len(requests) <= 1:
            results: list[MilpSolution | Exception] = []
            for request in requests:
                try:
                    results.append(
                        self.solve(
                            request.model,
                            spec=request.spec,
                            time_limit=request.time_limit,
                            mip_rel_gap=request.mip_rel_gap,
                        )
                    )
                except Exception as exc:  # noqa: BLE001 — re-raised unless opted in
                    if not return_exceptions:
                        raise
                    results.append(exc)
            return results
        specs = [BackendSpec.coerce(request.spec) for request in requests]
        started = time.perf_counter()
        futures = [
            self.pool.submit(
                request.model,
                spec=spec,
                time_limit=request.time_limit,
                mip_rel_gap=request.mip_rel_gap,
                hard_timeout=request.hard_timeout,
            )
            for request, spec in zip(requests, specs)
        ]
        # Completion times recorded by callback, not at sequential result()
        # time: the fallback wall for a solve with no server-side measurement
        # (e.g. a timeout) must not absorb the wait on earlier futures.
        finished_at: dict[int, float] = {}
        for index, future in enumerate(futures):
            future.add_done_callback(
                lambda _future, index=index: finished_at.setdefault(
                    index, time.perf_counter()
                )
            )
        results = []
        for index, (future, spec) in enumerate(zip(futures, specs)):
            try:
                solution = future.result()
            except SolverPoolTimeoutError as exc:
                # Same contract as an inline backend hitting its time limit.
                # The pool reports how long the killed solve actually ran;
                # without it the fallback below would charge the whole
                # batch-queue wait to this one solve.
                diagnostics: dict[str, Any] = {"pool_timeout": str(exc)}
                solve_wall_time = getattr(exc, "solve_wall_time", None)
                if solve_wall_time is not None:
                    diagnostics["server_wall_time"] = float(solve_wall_time)
                solution = MilpSolution(
                    status=SolutionStatus.LIMIT,
                    objective=float("inf"),
                    diagnostics=diagnostics,
                )
            except Exception as exc:  # noqa: BLE001 — re-raised unless opted in
                if not return_exceptions:
                    raise
                results.append(exc)
                continue
            elapsed = finished_at.get(index, time.perf_counter()) - started
            wall = float(solution.diagnostics.get("server_wall_time", elapsed))
            self._finish(solution, spec, wall, pooled=True)
            results.append(solution)
        return results

    def _solve_inline(
        self,
        model: LinearModel | CompiledModel,
        spec: BackendSpec,
        *,
        time_limit: float | None,
        mip_rel_gap: float,
    ) -> MilpSolution:
        backend = resolve_backend(spec.name)
        compiled = model.compile() if isinstance(model, LinearModel) else model
        return backend.solve(
            compiled,
            time_limit=time_limit,
            mip_rel_gap=mip_rel_gap,
            options=spec.options_dict(),
        )

    def _finish(
        self, solution: MilpSolution, spec: BackendSpec, wall_time: float, *, pooled: bool
    ) -> None:
        fingerprint = backend_fingerprint(spec)
        diagnostics = solution.diagnostics
        if pooled:
            # Pool and fabric dispatch paths stamp the split; a degraded
            # (timed-out) solve may carry none of it.
            queue_wait = diagnostics.get("queue_wait_s")
            solve_s = diagnostics.get("server_wall_time")
            wire_s = diagnostics.get("wire_s")
            endpoint = diagnostics.get("endpoint")
        else:
            # Inline: the solve runs in this very call, so its wall clock
            # *is* the solve time and nothing ever queued or crossed a wire.
            queue_wait, solve_s, wire_s, endpoint = 0.0, wall_time, None, None
        solution.telemetry = SolveTelemetry(
            backend=spec.name,
            fingerprint=fingerprint,
            wall_time=float(wall_time),
            status=solution.status.value,
            pooled=pooled,
            server_pid=solution.diagnostics.get("server_pid"),
            queue_wait_s=float(queue_wait) if queue_wait is not None else None,
            solve_s=float(solve_s) if solve_s is not None else None,
            wire_s=float(wire_s) if wire_s is not None else None,
            endpoint=str(endpoint) if endpoint is not None else None,
        )
        self._stats["solves"] += 1
        if pooled:
            self._stats["pooled_solves"] += 1
        self._stats["wall_time"] += float(wall_time)
        if queue_wait is not None:
            self._stats["queue_wait_s"] += float(queue_wait)
        if solve_s is not None:
            self._stats["solve_s"] += float(solve_s)
        if wire_s is not None:
            self._stats["wire_s"] += float(wire_s)
        per_backend = self._stats["backends"]
        per_backend[fingerprint] = per_backend.get(fingerprint, 0) + 1
        if endpoint is not None:
            per_endpoint = self._stats["endpoints"]
            per_endpoint[endpoint] = per_endpoint.get(endpoint, 0) + 1

    # ------------------------------------------------------------------
    # Telemetry counters (per process, per service)
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "solves": self._stats["solves"],
            "pooled_solves": self._stats["pooled_solves"],
            "wall_time": self._stats["wall_time"],
            "queue_wait_s": self._stats["queue_wait_s"],
            "solve_s": self._stats["solve_s"],
            "wire_s": self._stats["wire_s"],
            "backends": dict(self._stats["backends"]),
            "endpoints": dict(self._stats["endpoints"]),
        }

    def stats_delta(self, before: dict[str, Any]) -> dict[str, Any]:
        """Difference between :meth:`stats` now and an earlier snapshot."""
        now = self.stats()
        backends = {
            fp: count - before.get("backends", {}).get(fp, 0)
            for fp, count in now["backends"].items()
            if count - before.get("backends", {}).get(fp, 0)
        }
        endpoints = {
            ep: count - before.get("endpoints", {}).get(ep, 0)
            for ep, count in now["endpoints"].items()
            if count - before.get("endpoints", {}).get(ep, 0)
        }
        return {
            "solves": now["solves"] - before.get("solves", 0),
            "pooled_solves": now["pooled_solves"] - before.get("pooled_solves", 0),
            "wall_time": now["wall_time"] - before.get("wall_time", 0.0),
            "queue_wait_s": now["queue_wait_s"] - before.get("queue_wait_s", 0.0),
            "solve_s": now["solve_s"] - before.get("solve_s", 0.0),
            "wire_s": now["wire_s"] - before.get("wire_s", 0.0),
            "backends": backends,
            "endpoints": endpoints,
        }


_default_service = SolverService()
_current_service: SolverService = _default_service


def get_solver_service() -> SolverService:
    """The service in effect for this process (pooled inside scopes)."""
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


@contextmanager
def pooled_service_scope(
    num_servers: int, **pool_kwargs: Any
) -> Iterator[SolverService]:
    """Run the scope with a fresh subprocess pool attached to the service.

    ``num_servers <= 0`` is a no-op scope yielding the ambient service, so
    callers can pass a CLI value straight through.
    """
    if num_servers <= 0:
        yield get_solver_service()
        return
    pool = SolverPool(num_servers, **pool_kwargs)
    try:
        with service_scope(SolverService(pool)) as service:
            yield service
    finally:
        pool.close()


@contextmanager
def solver_service_scope(
    num_servers: int = 0,
    connect: str | Sequence[str] | None = None,
    *,
    token: str | None = None,
    **pool_kwargs: Any,
) -> Iterator[SolverService]:
    """The one scope the worker loop uses, whatever its solver topology.

    * no ``connect`` — exactly :func:`pooled_service_scope`: a local pool of
      ``num_servers`` (or the ambient inline service when ``<= 0``).
    * with ``connect`` (``HOST:PORT`` targets, or one comma-separated
      string) — a :class:`~repro.solver.fabric.SolverFabric` over those
      endpoints; ``num_servers > 0`` additionally contributes a local pool
      of that size as one more fabric endpoint, and ``num_servers < 0``
      sizes that local pool to the host's cores.  The fabric (and the local
      pool it owns) is closed when the scope exits.
    """
    if not connect:
        with pooled_service_scope(num_servers, **pool_kwargs) as service:
            yield service
        return
    from .fabric import SolverFabric  # deferred: fabric imports this module

    local_pool = None
    if num_servers:
        size = num_servers if num_servers > 0 else (os.cpu_count() or 1)
        local_pool = SolverPool(size, **pool_kwargs)
    fabric = None
    try:
        fabric = SolverFabric(
            connect, token=token, local_pool=local_pool, own_local_pool=True
        )
        with service_scope(SolverService(fabric)) as service:
            yield service
    finally:
        if fabric is not None:
            fabric.close()
        elif local_pool is not None:  # fabric construction failed
            local_pool.close()
