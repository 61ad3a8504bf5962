"""HiGHS-based backend for the MILP model builder.

The paper assumes an exact fixed-dimension MILP oracle (Kannan/Lenstra).  We
substitute scipy's HiGHS interface, :func:`scipy.optimize.milp`, for
mixed-integer models and, without integrality, for LP relaxations.  The
backend is exact on the models this library produces and returns a
:class:`~repro.milp.model.MilpSolution` holding HiGHS's value array in the
model's column order.

A model with integer columns is solved LP first.  When the LP optimum is
integral it is returned as the MILP optimum: it is feasible for the MILP and
meets the relaxation's bound.  An infeasible LP is a certificate that the
MILP is infeasible.  Only otherwise does HiGHS run its MIP solver, which
would spend its presolve and set-up before solving the same root LP.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np
from scipy import optimize

from .model import CompiledModel, LinearModel, MilpSolution, SolutionStatus

__all__ = ["solve_with_scipy", "solve_lp_relaxation"]

# The LP point answers the MILP only when every integer column is this close
# to an integer; those columns are returned rounded.
_INTEGRALITY_TOL = 1e-9


def _compiled(model: LinearModel | CompiledModel) -> CompiledModel:
    return model.compile() if isinstance(model, LinearModel) else model


def _build_constraints(compiled: CompiledModel) -> list[optimize.LinearConstraint]:
    constraints: list[optimize.LinearConstraint] = []
    if compiled.a_ub.shape[0]:
        constraints.append(
            optimize.LinearConstraint(
                compiled.a_ub, -np.inf * np.ones(compiled.a_ub.shape[0]), compiled.b_ub
            )
        )
    if compiled.a_eq.shape[0]:
        constraints.append(
            optimize.LinearConstraint(compiled.a_eq, compiled.b_eq, compiled.b_eq)
        )
    return constraints


def _solve_lp(
    compiled: CompiledModel,
    constraints: list[optimize.LinearConstraint],
    bounds: optimize.Bounds,
    time_limit: float | None,
) -> optimize.OptimizeResult:
    """The one HiGHS LP call: the model without integrality, HiGHS's defaults."""
    options = {} if time_limit is None else {"time_limit": float(time_limit)}
    return optimize.milp(
        c=compiled.objective, constraints=constraints, bounds=bounds, options=options
    )


def _diagnostics(result: optimize.OptimizeResult, **extra: Any) -> dict[str, Any]:
    return {
        "backend": "scipy-highs",
        "scipy_status": int(result.status),
        "message": str(result.message),
        "mip_node_count": result.get("mip_node_count"),
        "mip_gap": result.get("mip_gap"),
        **extra,
    }


def _solution_from_result(
    result: optimize.OptimizeResult, diagnostics: dict[str, Any]
) -> MilpSolution:
    # scipy.optimize.milp status codes: 0 optimal, 1 iteration/time limit,
    # 2 infeasible, 3 unbounded, 4 other.  An LP stopped by a limit has no x.
    if result.status == 0 and result.x is not None:
        return MilpSolution(SolutionStatus.OPTIMAL, float(result.fun), result.x, diagnostics)
    if result.status == 1 and result.x is not None:
        return MilpSolution(SolutionStatus.FEASIBLE, float(result.fun), result.x, diagnostics)
    if result.status == 2:
        return MilpSolution(SolutionStatus.INFEASIBLE, float("inf"), diagnostics=diagnostics)
    if result.status == 3:
        return MilpSolution(SolutionStatus.UNBOUNDED, float("-inf"), diagnostics=diagnostics)
    return MilpSolution(SolutionStatus.LIMIT, float("inf"), diagnostics=diagnostics)


def _relaxation_outcome(result: optimize.OptimizeResult, integer: np.ndarray) -> str:
    if result.status == 0:
        values = result.x[integer]
        gaps = np.abs(values - np.round(values))
        return "integral" if np.all(gaps <= _INTEGRALITY_TOL) else "fractional"
    return {1: "limit", 2: "infeasible"}.get(int(result.status), "other")


def solve_with_scipy(
    model: LinearModel | CompiledModel,
    *,
    time_limit: float | None = None,
    node_limit: int | None = None,
) -> MilpSolution:
    """Solve a mixed-integer linear model with HiGHS, LP relaxation first.

    The MILP runs with ``mip_rel_gap=0``, so ``OPTIMAL`` is exact; HiGHS's
    own default gap is ``1e-4``.

    ``time_limit`` bounds the LP and the MILP together: the MILP gets what
    the LP left.  ``node_limit`` applies to the MILP only.  The diagnostics
    of a model with integer columns say how its LP ended
    (``lp_relaxation``), with the LP's objective and seconds.
    """
    compiled = _compiled(model)
    if compiled.num_variables == 0:
        return MilpSolution(status=SolutionStatus.OPTIMAL, objective=0.0)

    constraints = _build_constraints(compiled)
    bounds = optimize.Bounds(compiled.lower, compiled.upper)
    lp_diagnostics: dict[str, Any] = {}
    milp_time_limit = time_limit
    if compiled.num_integer_variables:
        integer = compiled.integrality != 0
        start = time.perf_counter()
        relaxed = _solve_lp(compiled, constraints, bounds, time_limit)
        lp_s = time.perf_counter() - start
        outcome = _relaxation_outcome(relaxed, integer)
        lp_diagnostics = {
            "lp_relaxation": outcome,
            "lp_objective": float(relaxed.fun) if relaxed.status == 0 else None,
            "lp_s": lp_s,
        }
        if outcome == "integral":
            values = relaxed.x.copy()
            values[integer] = np.round(values[integer])
            return MilpSolution(
                SolutionStatus.OPTIMAL,
                float(compiled.objective @ values),
                values,
                _diagnostics(relaxed, mip_node_count=0, mip_gap=0.0, **lp_diagnostics),
            )
        if outcome in ("infeasible", "limit"):
            return _solution_from_result(relaxed, _diagnostics(relaxed, **lp_diagnostics))
        if time_limit is not None:
            milp_time_limit = time_limit - lp_s
            if milp_time_limit <= 0:
                return MilpSolution(
                    SolutionStatus.LIMIT,
                    float("inf"),
                    diagnostics=_diagnostics(
                        relaxed,
                        scipy_status=1,
                        message="The LP relaxation used the whole time limit.",
                        **lp_diagnostics,
                    ),
                )

    options: dict[str, Any] = {"mip_rel_gap": 0.0}
    if milp_time_limit is not None:
        options["time_limit"] = float(milp_time_limit)
    if node_limit is not None:
        options["node_limit"] = int(node_limit)

    result = optimize.milp(
        c=compiled.objective,
        constraints=constraints,
        integrality=compiled.integrality,
        bounds=bounds,
        options=options,
    )
    return _solution_from_result(result, _diagnostics(result, **lp_diagnostics))


def solve_lp_relaxation(
    model: LinearModel | CompiledModel,
    *,
    extra_upper: dict[int, float] | None = None,
    extra_lower: dict[int, float] | None = None,
    time_limit: float | None = None,
) -> MilpSolution:
    """Solve the LP relaxation of a model (integrality dropped).

    ``extra_lower`` / ``extra_upper`` override individual variable bounds by
    dense index — this is the hook the branch-and-bound solver uses to
    impose branching decisions without rebuilding the model.  A relaxation
    stopped by ``time_limit`` has status ``LIMIT``.
    """
    compiled = _compiled(model)
    if compiled.num_variables == 0:
        return MilpSolution(status=SolutionStatus.OPTIMAL, objective=0.0)

    lower = compiled.lower.copy()
    upper = compiled.upper.copy()
    if extra_lower:
        for index, value in extra_lower.items():
            lower[index] = max(lower[index], value)
    if extra_upper:
        for index, value in extra_upper.items():
            upper[index] = min(upper[index], value)

    result = _solve_lp(
        compiled, _build_constraints(compiled), optimize.Bounds(lower, upper), time_limit
    )
    diagnostics: dict[str, Any] = {
        "backend": "scipy-highs-lp",
        "scipy_status": int(result.status),
        "message": str(result.message),
    }
    return _solution_from_result(result, diagnostics)
