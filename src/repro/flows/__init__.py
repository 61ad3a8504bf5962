"""Flow-network substrate: Dinic max-flow and bag-to-machine assignment."""

from .maxflow import FlowNetwork, FlowResult, max_flow
from .assignment import (
    AssignmentProblem,
    AssignmentResult,
    solve_bag_assignment,
)

__all__ = [
    "AssignmentProblem",
    "AssignmentResult",
    "FlowNetwork",
    "FlowResult",
    "max_flow",
    "solve_bag_assignment",
]
