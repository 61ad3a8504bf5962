"""Exact makespan minimisation via an assignment MILP.

The reference optimum for the approximation-ratio experiments (E1, E2, E4).
Variables ``x[j, i] in {0, 1}`` assign job ``j`` to machine ``i``; ``T`` is
the makespan.  Constraints: every job on exactly one machine, machine load at
most ``T``, at most one job per bag per machine.  Optional symmetry breaking
orders the machine loads, which prunes the machine-permutation symmetry of
identical machines.

This model has ``n*m`` binary variables, so it is only intended for the small
instances on which the experiments report exact ratios; larger experiments
fall back to lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import InfeasibleModelError
from ..core.instance import Instance
from ..core.result import SolverResult, timed_solver_result
from ..core.schedule import Schedule
from ..milp import LinearModel, SolutionStatus
from ..solver import BackendSpec, get_solver_service

__all__ = [
    "ExactMilpConfig",
    "exact_milp_schedule",
    "build_assignment_model",
]


@dataclass(frozen=True, slots=True)
class ExactMilpConfig:
    """Options of the exact assignment MILP.

    ``backend`` accepts a backend name or a :class:`repro.solver.BackendSpec`;
    it is validated at construction so an unknown backend fails before any
    model is built.
    """

    backend: str | BackendSpec = "scipy"
    time_limit: float | None = 120.0
    symmetry_breaking: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend", BackendSpec.coerce(self.backend))

    @property
    def backend_spec(self) -> BackendSpec:
        assert isinstance(self.backend, BackendSpec)
        return self.backend


def build_assignment_model(
    instance: Instance, *, symmetry_breaking: bool = True
) -> LinearModel:
    """Construct the assignment MILP for an instance (exposed for tests)."""
    model = LinearModel(f"exact-{instance.name}")
    jobs = instance.jobs
    machines = range(instance.num_machines)

    model.add_variable("T", lower=0.0, objective=1.0)
    for job in jobs:
        for machine in machines:
            model.add_variable(f"x_{job.id}_{machine}", integer=True, lower=0.0, upper=1.0)

    # Every job on exactly one machine.
    for job in jobs:
        model.add_eq(
            f"assign_{job.id}",
            {f"x_{job.id}_{machine}": 1.0 for machine in machines},
            1.0,
        )
    # Machine load at most T.
    for machine in machines:
        coefficients = {f"x_{job.id}_{machine}": job.size for job in jobs}
        coefficients["T"] = -1.0
        model.add_le(f"load_{machine}", coefficients, 0.0)
    # Bag constraint: at most one job of a bag per machine.
    for bag, members in instance.bags().items():
        if len(members) <= 1:
            continue
        for machine in machines:
            model.add_le(
                f"bag_{bag}_m{machine}",
                {f"x_{job.id}_{machine}": 1.0 for job in members},
                1.0,
            )
    # Symmetry breaking: machine loads non-increasing in the machine index.
    if symmetry_breaking and instance.num_machines > 1:
        for machine in range(instance.num_machines - 1):
            coefficients: dict[str, float] = {}
            for job in jobs:
                coefficients[f"x_{job.id}_{machine}"] = -job.size
                coefficients[f"x_{job.id}_{machine + 1}"] = job.size
            model.add_le(f"sym_{machine}", coefficients, 0.0)
    return model


def exact_milp_schedule(
    instance: Instance, *, config: ExactMilpConfig | None = None
) -> SolverResult:
    """Solve an instance to optimality (subject to the backend's exactness)."""
    config = config or ExactMilpConfig()
    diagnostics: dict[str, object] = {}

    def build() -> Schedule:
        model = build_assignment_model(
            instance, symmetry_breaking=config.symmetry_breaking
        )
        diagnostics.update(model.summary())
        solution = get_solver_service().solve(
            model, spec=config.backend_spec, time_limit=config.time_limit
        )
        diagnostics["milp_status"] = solution.status.value
        if solution.telemetry is not None:
            diagnostics["milp_telemetry"] = solution.telemetry.to_dict()
        if solution.status not in (SolutionStatus.OPTIMAL, SolutionStatus.FEASIBLE):
            raise InfeasibleModelError(
                f"exact MILP for {instance.name!r} returned status {solution.status.value}"
            )
        values = solution.values
        schedule = Schedule(instance, allow_partial=True)
        for job in instance.jobs:
            assigned_machine: int | None = None
            best_value = 0.5
            for machine in range(instance.num_machines):
                value = values.get(f"x_{job.id}_{machine}", 0.0)
                if value > best_value:
                    best_value = value
                    assigned_machine = machine
            if assigned_machine is None:
                raise InfeasibleModelError(
                    f"exact MILP left job {job.id} unassigned (numerical issue)"
                )
            schedule.assign(job.id, assigned_machine)
        return schedule

    result = timed_solver_result(
        "exact-milp",
        build,
        params={
            "backend": config.backend_spec.to_dict(),
            "symmetry_breaking": config.symmetry_breaking,
        },
        diagnostics=diagnostics,
        optimal=True,
    )
    return result
