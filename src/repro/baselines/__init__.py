"""Baseline solvers the paper's EPTAS is compared against."""

from .list_scheduling import (
    first_fit_schedule,
    greedy_assign,
    greedy_schedule,
    lpt_order,
    upper_bound_makespan,
)
from .lpt import (
    BagLptResult,
    GroupAssignment,
    bag_lpt,
    group_bag_lpt,
    lpt_schedule,
)
from .coloring import coloring_schedule
from .das_wiese import DasWieseConfig, das_wiese_schedule
from .local_search import LocalSearchStats, improve_schedule, local_search_schedule

__all__ = [
    "BagLptResult",
    "DasWieseConfig",
    "GroupAssignment",
    "LocalSearchStats",
    "bag_lpt",
    "coloring_schedule",
    "das_wiese_schedule",
    "first_fit_schedule",
    "greedy_assign",
    "greedy_schedule",
    "group_bag_lpt",
    "improve_schedule",
    "local_search_schedule",
    "lpt_order",
    "lpt_schedule",
    "upper_bound_makespan",
]
