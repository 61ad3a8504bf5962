"""Core data model: jobs, bags, instances, schedules, conflicts, results."""

from .errors import (
    AlgorithmError,
    InfeasibleModelError,
    InvalidInstanceError,
    InvalidScheduleError,
    ReproError,
    SolverLimitError,
)
from .job import Job
from .instance import Instance, InstanceStats
from .schedule import Conflict, Occupancy, Schedule, ValidationReport
from .result import SolverResult, timed_solver_result

__all__ = [
    "AlgorithmError",
    "Conflict",
    "InfeasibleModelError",
    "Instance",
    "InstanceStats",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "Job",
    "Occupancy",
    "ReproError",
    "Schedule",
    "SolverLimitError",
    "SolverResult",
    "ValidationReport",
    "timed_solver_result",
]
