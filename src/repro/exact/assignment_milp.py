"""Exact makespan minimisation via an assignment MILP.

The reference optimum for the approximation-ratio experiments (E1, E2, E4),
and, relaxed, the LP lower bound of :mod:`repro.bounds`.  Column 0 is the
makespan ``T``; ``x[j, i] in {0, 1}`` assigns the ``j``-th job (instance
order) to machine ``i`` and is column ``1 + j*m + i``.  Constraints: every
job on exactly one machine, machine load at most ``T``, at most one job per
bag per machine.  Optional symmetry breaking orders the machine loads, which
prunes the machine-permutation symmetry of identical machines.  The rows go
in as index blocks and the schedule is read back from the solution's point
by the same column arithmetic.

This model has ``n*m`` binary variables, so it is only intended for the small
instances on which the experiments report exact ratios; larger experiments
fall back to lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import InfeasibleModelError
from ..core.instance import Instance
from ..core.result import SolverResult, timed_solver_result
from ..core.schedule import Schedule
from ..milp import LinearModel, Sense
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
    """The assignment MILP of an instance; column ``1 + j*m + i`` is ``x[j, i]``."""
    model = LinearModel(f"exact-{instance.name}")
    jobs = instance.jobs
    n, m = instance.num_jobs, instance.num_machines
    sizes = instance.sizes
    model.add_columns(["T"], objective=1.0)
    model.add_columns(
        [f"x_{job.id}_{machine}" for job in jobs for machine in range(m)],
        upper=1.0,
        integer=True,
    )
    x = 1 + np.arange(n * m).reshape(n, m)
    machines = np.tile(np.arange(m), n)

    # Every job on exactly one machine.
    model.add_constraints(
        [f"assign_{job.id}" for job in jobs],
        Sense.EQ,
        np.ones(n),
        row=np.repeat(np.arange(n), m),
        col=x.ravel(),
        value=np.ones(n * m),
    )
    # Machine load at most T.
    model.add_constraints(
        [f"load_{machine}" for machine in range(m)],
        Sense.LE,
        np.zeros(m),
        row=np.concatenate((machines, np.arange(m))),
        col=np.concatenate((x.ravel(), np.zeros(m, dtype=np.int64))),
        value=np.concatenate((np.repeat(sizes, m), -np.ones(m))),
    )
    # Bag constraint: at most one job of a bag per machine.
    position = {job.id: j for j, job in enumerate(jobs)}
    shared = {bag: members for bag, members in instance.bags().items() if len(members) > 1}
    member = np.array(
        [position[job.id] for members in shared.values() for job in members], dtype=np.int64
    )
    owner = np.repeat(np.arange(len(shared)), [len(members) for members in shared.values()])
    model.add_constraints(
        [f"bag_{bag}_m{machine}" for bag in shared for machine in range(m)],
        Sense.LE,
        np.ones(len(shared) * m),
        row=(owner[:, None] * m + np.arange(m)).ravel(),
        col=x[member].ravel(),
        value=np.ones(member.size * m),
    )
    # Symmetry breaking: machine loads non-increasing in the machine index.
    if symmetry_breaking and m > 1:
        pairs = np.tile(np.arange(m - 1), n)
        model.add_constraints(
            [f"sym_{machine}" for machine in range(m - 1)],
            Sense.LE,
            np.zeros(m - 1),
            row=np.concatenate((pairs, pairs)),
            col=np.concatenate((x[:, :-1].ravel(), x[:, 1:].ravel())),
            value=np.concatenate((-np.repeat(sizes, m - 1), np.repeat(sizes, m - 1))),
        )
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
        if not solution.is_feasible:
            raise InfeasibleModelError(
                f"exact MILP for {instance.name!r} returned status {solution.status.value}"
            )
        x = solution.x[1:].reshape(instance.num_jobs, instance.num_machines)
        schedule = Schedule(instance)
        for job, values in zip(instance.jobs, x):
            # The machine of the largest value, which must be above 0.5.
            machine = int(values.argmax())
            if values[machine] <= 0.5:
                raise InfeasibleModelError(
                    f"exact MILP left job {job.id} unassigned (numerical issue)"
                )
            schedule.assign(job.id, machine)
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
