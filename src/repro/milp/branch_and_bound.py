"""A from-scratch LP-based branch-and-bound MILP solver.

This is the "own substrate" counterpart to the HiGHS backend: a best-first
branch-and-bound over the LP relaxation, branching on the most fractional
integer variable.  It is exact (given exact LP solves), deterministic, and
deliberately simple — it exists so that

* the library does not *depend* on HiGHS's MIP capabilities for
  correctness-critical small models (the two backends cross-check each other
  in the test suite), and
* experiments can report node counts for the Das–Wiese-style baseline,
  illustrating the integral-dimension blow-up the paper's EPTAS avoids.

For the large configuration MILPs of the EPTAS the HiGHS backend is the
default; the driver only uses this solver when explicitly requested or when
the model is small.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.errors import SolverLimitError
from .model import CompiledModel, LinearModel, MilpSolution, SolutionStatus
from .scipy_backend import solve_lp_relaxation

__all__ = ["BranchAndBoundConfig", "solve_with_branch_and_bound"]


@dataclass(frozen=True, slots=True)
class BranchAndBoundConfig:
    """Resource limits and tolerances for the branch-and-bound solver."""

    max_nodes: int = 50_000
    time_limit: float | None = None
    integrality_tol: float = 1e-6
    objective_tol: float = 1e-9
    raise_on_limit: bool = False


@dataclass(order=True)
class _Node:
    """A branch-and-bound node ordered by its LP bound (best-first)."""

    bound: float
    order: int
    lower_overrides: dict[int, float] = None  # type: ignore[assignment]
    upper_overrides: dict[int, float] = None  # type: ignore[assignment]


def _most_fractional(
    values: np.ndarray, integer_indices: np.ndarray, tol: float
) -> int | None:
    """Index of the integer variable whose value is farthest from integral."""
    best_index: int | None = None
    best_gap = tol
    for index in integer_indices:
        value = values[index]
        gap = abs(value - round(value))
        frac_distance = min(value - math.floor(value), math.ceil(value) - value)
        if gap > tol and frac_distance > best_gap:
            best_gap = frac_distance
            best_index = int(index)
    if best_index is not None:
        return best_index
    # Fall back to the first non-integral variable even if barely fractional.
    for index in integer_indices:
        value = values[index]
        if abs(value - round(value)) > tol:
            return int(index)
    return None


def solve_with_branch_and_bound(
    model: LinearModel | CompiledModel,
    config: BranchAndBoundConfig | None = None,
) -> MilpSolution:
    """Solve a MILP by LP-based best-first branch and bound.

    Returns the same :class:`MilpSolution` structure as the scipy backend.
    Diagnostics include the number of explored nodes and the number of LP
    solves, which the experiments report.
    """
    config = config or BranchAndBoundConfig()
    compiled = model.compile() if isinstance(model, LinearModel) else model
    integer_indices = np.flatnonzero(compiled.integrality)

    start_time = time.perf_counter()
    lp_solves = 0

    def relax(node: _Node) -> MilpSolution:
        nonlocal lp_solves
        lp_solves += 1
        return solve_lp_relaxation(
            compiled,
            extra_lower=node.lower_overrides,
            extra_upper=node.upper_overrides,
        )

    counter = itertools.count()
    root = _Node(bound=-math.inf, order=next(counter), lower_overrides={}, upper_overrides={})
    root_relaxation = relax(root)
    diagnostics: dict[str, Any] = {"backend": "own-branch-and-bound"}

    if root_relaxation.status is SolutionStatus.INFEASIBLE:
        diagnostics.update({"nodes": 1, "lp_solves": lp_solves})
        return MilpSolution(
            status=SolutionStatus.INFEASIBLE,
            objective=float("inf"),
            diagnostics=diagnostics,
        )
    if root_relaxation.status is SolutionStatus.UNBOUNDED:
        diagnostics.update({"nodes": 1, "lp_solves": lp_solves})
        return MilpSolution(
            status=SolutionStatus.UNBOUNDED,
            objective=float("-inf"),
            diagnostics=diagnostics,
        )

    best_objective = math.inf
    best_x: np.ndarray | None = None
    nodes_explored = 0
    hit_limit = False

    heap: list[tuple[float, int, _Node, MilpSolution]] = [
        (root_relaxation.objective, root.order, root, root_relaxation)
    ]

    while heap:
        bound, _, node, relaxation = heapq.heappop(heap)
        nodes_explored += 1

        if bound >= best_objective - config.objective_tol:
            continue
        if nodes_explored > config.max_nodes:
            hit_limit = True
            break
        if (
            config.time_limit is not None
            and time.perf_counter() - start_time > config.time_limit
        ):
            hit_limit = True
            break

        branch_index = _most_fractional(
            relaxation.x, integer_indices, config.integrality_tol
        )
        if branch_index is None:
            # Integral solution: candidate incumbent.
            if relaxation.objective < best_objective - config.objective_tol:
                best_objective = relaxation.objective
                best_x = relaxation.x
            continue

        value = relaxation.x[branch_index]
        floor_value = math.floor(value + config.integrality_tol)
        ceil_value = floor_value + 1

        down = _Node(
            bound=bound,
            order=next(counter),
            lower_overrides=dict(node.lower_overrides),
            upper_overrides={**node.upper_overrides, branch_index: float(floor_value)},
        )
        up = _Node(
            bound=bound,
            order=next(counter),
            lower_overrides={**node.lower_overrides, branch_index: float(ceil_value)},
            upper_overrides=dict(node.upper_overrides),
        )
        for child in (down, up):
            child_relaxation = relax(child)
            if not child_relaxation.is_feasible:
                continue
            if child_relaxation.objective >= best_objective - config.objective_tol:
                continue
            heapq.heappush(
                heap,
                (child_relaxation.objective, child.order, child, child_relaxation),
            )

    diagnostics.update(
        {
            "nodes": nodes_explored,
            "lp_solves": lp_solves,
            "hit_limit": hit_limit,
            "wall_time": time.perf_counter() - start_time,
        }
    )

    if best_x is None:
        if hit_limit:
            if config.raise_on_limit:
                raise SolverLimitError(
                    f"branch and bound exceeded max_nodes={config.max_nodes} "
                    "without finding an integral solution"
                )
            return MilpSolution(
                status=SolutionStatus.LIMIT,
                objective=float("inf"),
                diagnostics=diagnostics,
            )
        return MilpSolution(
            status=SolutionStatus.INFEASIBLE,
            objective=float("inf"),
            diagnostics=diagnostics,
        )

    status = SolutionStatus.FEASIBLE if hit_limit else SolutionStatus.OPTIMAL
    return MilpSolution(
        status=status,
        objective=best_objective,
        x=best_x,
        diagnostics=diagnostics,
    )
