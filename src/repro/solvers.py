"""The solver roster: every solver that ``repro solve``, ``repro compare`` and
the scheduling service can run, under one name each.

Every entry runs as ``(instance, eps)``; combinatorial solvers ignore
``eps``.  ``uses_eps`` and ``backend`` tell the service how to key its cache
entries: ``eps`` only where the solver consumes it, and the backend
fingerprint for MILP-backed solvers, so a scipy upgrade never replays stale
results.

The module imports only the algorithm packages, so the CLI reads the roster
without loading any orchestration or service module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .baselines import (
    coloring_schedule,
    das_wiese_schedule,
    first_fit_schedule,
    greedy_schedule,
    local_search_schedule,
    lpt_schedule,
)
from .baselines.das_wiese import DasWieseConfig
from .core.instance import Instance
from .core.result import SolverResult
from .eptas import eptas_schedule
from .eptas.params import EptasConfig
from .exact import ExactMilpConfig, exact_schedule

__all__ = ["SOLVER_ROSTER"]


@dataclass(frozen=True)
class _RosterEntry:
    """One solver: how to run it and how to key its cache entries."""

    run: Callable[[Instance, float], SolverResult]
    uses_eps: bool = False
    backend: Callable[[float], Any] | None = field(default=None)


SOLVER_ROSTER: dict[str, _RosterEntry] = {
    "greedy": _RosterEntry(lambda instance, eps: greedy_schedule(instance)),
    "first-fit": _RosterEntry(lambda instance, eps: first_fit_schedule(instance)),
    "lpt": _RosterEntry(lambda instance, eps: lpt_schedule(instance)),
    "local-search": _RosterEntry(lambda instance, eps: local_search_schedule(instance)),
    "coloring": _RosterEntry(lambda instance, eps: coloring_schedule(instance)),
    "das-wiese": _RosterEntry(
        lambda instance, eps: das_wiese_schedule(instance, eps=eps),
        uses_eps=True,
        backend=lambda eps: DasWieseConfig(eps=eps).backend_spec,
    ),
    "eptas": _RosterEntry(
        lambda instance, eps: eptas_schedule(instance, eps=eps),
        uses_eps=True,
        backend=lambda eps: EptasConfig(eps=eps).backend_spec,
    ),
    "exact": _RosterEntry(
        lambda instance, eps: exact_schedule(instance),
        backend=lambda eps: ExactMilpConfig().backend_spec,
    ),
}
