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
from .conflict_graph import (
    build_conflict_graph,
    chromatic_number_lower_bound,
    conflict_adjacency,
    greedy_clique_coloring,
    is_cluster_graph,
    verify_coloring,
)
from .analysis import ScheduleMetrics, analyze_schedule, schedule_certificate

__all__ = [
    "AlgorithmError",
    "Conflict",
    "ScheduleMetrics",
    "analyze_schedule",
    "schedule_certificate",
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
    "build_conflict_graph",
    "chromatic_number_lower_bound",
    "conflict_adjacency",
    "greedy_clique_coloring",
    "is_cluster_graph",
    "timed_solver_result",
    "verify_coloring",
]
