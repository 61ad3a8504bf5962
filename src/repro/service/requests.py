"""Request model of the scheduling service.

One submission is ``(instance, solver, eps)``.  This module owns its whole
lifecycle *except* transport and queueing: validation/canonicalisation from
wire params (:func:`normalise_request`), the content-hash cache key (built
with :func:`repro.orchestration.cache.cache_key` using the same
solver-name/config/backend conventions as the experiment grids, so the
service shares cache entries with grid runs where the rosters overlap),
the journal row parameters persisted into the ``service`` experiment
namespace, and inline execution (:func:`execute_request`).

The solvers are :data:`repro.solvers.SOLVER_ROSTER`, the roster ``repro
solve`` runs too: combinatorial solvers omit ``eps`` from their cache keys,
MILP-backed solvers fold the backend fingerprint in so a scipy
upgrade never replays stale results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.errors import ReproError
from ..core.instance import Instance
from ..orchestration.cache import cache_key, summarise_result
from ..solvers import SOLVER_ROSTER

__all__ = [
    "AdmissionError",
    "DEFAULT_EPS",
    "DEFAULT_SCHEDULE_PORT",
    "SCHEDULE_PROTOCOL_VERSION",
    "SCHEDULE_RPC_METHODS",
    "SERVICE_EXPERIMENT",
    "SERVICE_TELEMETRY_KEY",
    "ScheduleRequest",
    "cost_experiment",
    "execute_request",
    "normalise_request",
]

SCHEDULE_PROTOCOL_VERSION = 1
DEFAULT_SCHEDULE_PORT = 7481
SCHEDULE_RPC_METHODS = frozenset({"ping", "schedule_info", "submit"})

# The journal namespace inside the service's ExperimentStore.  It reuses the
# store's claim/complete/reclaim machinery verbatim, but is not a registered
# experiment spec — status/export special-case it.
SERVICE_EXPERIMENT = "service"
# Per-request counter deltas stashed in completed journal rows (mirrors the
# runner's "_solver_telemetry" convention) so `orch export service` can roll
# admitted/rejected/cache-hit totals up from any store file.
SERVICE_TELEMETRY_KEY = "_service_telemetry"
DEFAULT_EPS = 0.25


class AdmissionError(ReproError):
    """Request rejected at admission: expected cost exceeds the budget."""


def cost_experiment(solver: str) -> str:
    """Cost-model namespace for one solver's duration history.

    Namespaced per solver (not one bucket for the whole service): an LPT
    call and an exact MILP differ by orders of magnitude, and the admission
    gate is only as good as the expectation it compares to the budget.
    """
    return f"service:{solver}"


@dataclass(frozen=True)
class ScheduleRequest:
    """A validated, canonicalised submission."""

    instance: Instance
    solver: str
    eps: float = DEFAULT_EPS

    @property
    def config(self) -> dict[str, Any] | None:
        """Cache-key config: ``eps`` only where the solver consumes it."""
        if SOLVER_ROSTER[self.solver].uses_eps:
            return {"eps": self.eps}
        return None

    def cache_key(self) -> str:
        entry = SOLVER_ROSTER[self.solver]
        backend = entry.backend(self.eps) if entry.backend is not None else None
        return cache_key(self.instance, self.solver, self.config, backend=backend)

    def journal_params(self) -> dict[str, Any]:
        """The JSON row persisted in the ``service`` journal namespace.

        Always carries ``eps`` (even for solvers that ignore it) so a row
        round-trips back into an identical :class:`ScheduleRequest` on
        resume; the *cache key* still omits it where irrelevant.
        """
        return {
            "instance": self.instance.to_dict(),
            "solver": self.solver,
            "config": {"eps": self.eps},
        }


def normalise_request(params: Mapping[str, Any]) -> ScheduleRequest:
    """Validate wire/journal params into a :class:`ScheduleRequest`.

    Raises ``ValueError`` on anything malformed — the RPC layer turns that
    into a structured error reply, so a garbage submission never kills the
    connection (or the server).
    """
    if not isinstance(params, Mapping):
        raise ValueError("submit params must be an object")
    solver = params.get("solver", "lpt")
    if not isinstance(solver, str) or solver not in SOLVER_ROSTER:
        raise ValueError(
            f"unknown solver {solver!r}; expected one of {sorted(SOLVER_ROSTER)}"
        )
    config = params.get("config") or {}
    if not isinstance(config, Mapping):
        raise ValueError("config must be an object")
    eps = config.get("eps", DEFAULT_EPS)
    try:
        eps = float(eps)
    except (TypeError, ValueError):
        raise ValueError(f"eps must be a number, got {eps!r}") from None
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    raw_instance = params.get("instance")
    if not isinstance(raw_instance, Mapping):
        raise ValueError("instance must be an object (Instance.to_dict form)")
    try:
        instance = Instance.from_dict(raw_instance)
    except Exception as exc:
        raise ValueError(f"invalid instance: {exc}") from exc
    return ScheduleRequest(instance=instance, solver=solver, eps=eps)


def execute_request(request: ScheduleRequest) -> tuple[dict[str, Any], float]:
    """Run the solve inline; return ``(summary payload, wall seconds)``.

    The payload is the standard cache summary
    (:func:`repro.orchestration.cache.summarise_result`), which is what gets
    journaled, cached, and returned to clients.
    """
    started = time.perf_counter()
    result = SOLVER_ROSTER[request.solver].run(request.instance, request.eps)
    duration = time.perf_counter() - started
    return summarise_result(result), duration
