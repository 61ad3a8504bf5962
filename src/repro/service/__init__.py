"""Scheduling-as-a-service: ad-hoc solves for many concurrent clients.

The millions-of-users front door of the orchestration stack
(``repro orch schedule-serve`` / ``repro orch submit``): a long-running
:class:`ScheduleServer` on the :mod:`repro.distributed` frame protocol that
accepts arbitrary scheduling instances, probes the content-hash result
cache, gates admission on a :class:`~repro.orchestration.scheduling.CostModel`
duration prediction, journals accepted requests into an
:class:`~repro.orchestration.store.ExperimentStore` (the ``service``
namespace), and executes them on a pool of executor threads, each solving
inline through the current :class:`~repro.solver.SolverService`.  See
``docs/scheduling-service.md``.
"""

from ..solvers import SOLVER_ROSTER
from .client import ScheduleClient, ScheduleConnectionError
from .requests import (
    DEFAULT_EPS,
    DEFAULT_SCHEDULE_PORT,
    SCHEDULE_PROTOCOL_VERSION,
    SCHEDULE_RPC_METHODS,
    SERVICE_EXPERIMENT,
    SERVICE_TELEMETRY_KEY,
    AdmissionError,
    ScheduleRequest,
    cost_experiment,
    execute_request,
    normalise_request,
)
from .server import ScheduleServer

__all__ = [
    "AdmissionError",
    "DEFAULT_EPS",
    "DEFAULT_SCHEDULE_PORT",
    "SCHEDULE_PROTOCOL_VERSION",
    "SCHEDULE_RPC_METHODS",
    "SERVICE_EXPERIMENT",
    "SERVICE_TELEMETRY_KEY",
    "SOLVER_ROSTER",
    "ScheduleClient",
    "ScheduleConnectionError",
    "ScheduleRequest",
    "ScheduleServer",
    "cost_experiment",
    "execute_request",
    "normalise_request",
]
