"""Das–Wiese-style PTAS baseline (configuration ILP over *all* bags).

Das and Wiese (ESA 2017) gave the first PTAS for machine scheduling with
bag-constraints.  Their scheme guesses the placement of large jobs with a
dynamic program / configuration ILP in which the configuration alphabet
contains one entry per *(bag, rounded size)* pair for **every** bag — this is
exactly the dependence that makes the running time ``n^{f(1/eps)}`` instead
of ``f(1/eps) * poly(n)`` and that the paper reproduced here removes.

This module implements a faithful-in-spirit baseline (the original has no
public code):

1. dual-approximation binary search over the target makespan ``T``;
2. large jobs (``p_j >= eps*T``) are grouped by bag and geometrically
   rounded size; configurations are multisets of such groups with at most
   one job per bag and height at most ``(1+eps)*T``;
3. an ILP chooses how many machines run each configuration (covering every
   large job and reserving enough residual area for the small jobs);
4. small jobs are added greedily (LPT order, least-loaded conflict-free
   machine), mirroring the greedy/flow step of the original.

The baseline certifies a (1+O(eps)) makespan on the instances it can solve;
its cost explodes with the number of bags, which experiment E3 demonstrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from ..bounds import combined_lower_bound
from ..core.errors import SolverLimitError
from ..core.instance import Instance
from ..core.job import Job
from ..core.result import SolverResult, timed_solver_result
from ..core.schedule import Schedule
from ..milp import LinearModel, Sense
from ..solver import BackendSpec, get_solver_service
from .list_scheduling import greedy_assign, upper_bound_makespan

__all__ = ["das_wiese_schedule", "DasWieseConfig"]


@dataclass(frozen=True, slots=True)
class DasWieseConfig:
    """Tuning knobs of the Das–Wiese-style baseline.

    ``milp_backend`` is validated at construction (see :mod:`repro.solver`).
    """

    eps: float = 0.25
    max_configurations: int = 200_000
    milp_backend: str | BackendSpec = "scipy"
    milp_time_limit: float | None = 60.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "milp_backend", BackendSpec.coerce(self.milp_backend))

    @property
    def backend_spec(self) -> BackendSpec:
        assert isinstance(self.milp_backend, BackendSpec)
        return self.milp_backend


def _rounded_size(size: float, eps: float) -> float:
    """Round a size up to the next power of ``1 + eps`` (absolute grid)."""
    if size <= 0:
        return 0.0
    exponent = math.ceil(math.log(size, 1.0 + eps) - 1e-12)
    return (1.0 + eps) ** exponent


def _enumerate_configurations(
    groups: list[tuple[int, float, int]],
    capacity: float,
    max_configurations: int,
) -> Iterator[tuple[tuple[int, ...], float]]:
    """Enumerate configurations as count-vectors over the large-job groups.

    ``groups`` holds ``(bag, rounded size, available count)`` triples.  A
    configuration takes at most one job per *bag* (the bag constraint for
    large jobs) and has total rounded height at most ``capacity``.  Yields
    ``(counts, height)`` pairs; raises :class:`SolverLimitError` when more
    than ``max_configurations`` configurations would be generated.
    """
    emitted = 0
    num_groups = len(groups)
    counts = [0] * num_groups

    def recurse(start: int, height: float, used_bags: set[int]) -> Iterator[tuple[tuple[int, ...], float]]:
        nonlocal emitted
        emitted += 1
        if emitted > max_configurations:
            raise SolverLimitError(
                f"Das–Wiese baseline exceeded max_configurations={max_configurations}"
            )
        yield tuple(counts), height
        for index in range(start, num_groups):
            bag, size, available = groups[index]
            if available <= 0 or bag in used_bags:
                continue
            if height + size > capacity + 1e-9:
                continue
            counts[index] = 1
            used_bags.add(bag)
            yield from recurse(index + 1, height + size, used_bags)
            used_bags.discard(bag)
            counts[index] = 0

    yield from recurse(0, 0.0, set())


def _configuration_ilp(
    configurations: list[tuple[tuple[int, ...], float]],
    groups: list[tuple[int, float, int]],
    num_machines: int,
    capacity: float,
    small_area: float,
) -> LinearModel:
    """The ILP over configuration multiplicities: column ``c`` is configuration ``c``.

    Rows: at most ``num_machines`` machines; cover every group's jobs;
    leave ``small_area`` of headroom for the small jobs (only when it is
    positive); use every machine slot (a cheap way to spread residual
    capacity).
    """
    num = len(configurations)
    counts = np.array([c for c, _ in configurations], dtype=float).reshape(num, len(groups))
    heights = np.array([height for _, height in configurations])
    every, first_row, ones = np.arange(num), np.zeros(num, dtype=np.int64), np.ones(num)
    model = LinearModel("das-wiese")
    model.add_columns([f"x_{index}" for index in range(num)], integer=True)
    model.add_constraints(
        ["machines"], Sense.LE, [float(num_machines)], row=first_row, col=every, value=ones
    )
    group, configuration = np.nonzero(counts.T)
    model.add_constraints(
        [f"cover_{index}" for index in range(len(groups))],
        Sense.GE,
        [float(available) for _, _, available in groups],
        row=group,
        col=configuration,
        value=counts[configuration, group],
    )
    if small_area > 0:
        model.add_constraints(
            ["small_area"],
            Sense.GE,
            [small_area],
            row=first_row,
            col=every,
            value=capacity - heights,
        )
    model.add_constraints(
        ["use_machines"], Sense.GE, [float(num_machines)], row=first_row, col=every, value=ones
    )
    return model


def _try_build_schedule(
    instance: Instance, target: float, config: DasWieseConfig
) -> Schedule | None:
    """Attempt to build a schedule of makespan roughly ``(1+O(eps))*target``."""
    eps = config.eps
    threshold = eps * target
    capacity = (1.0 + eps) * target

    large_jobs = [job for job in instance.jobs if job.size >= threshold]
    small_jobs = sorted(
        (job for job in instance.jobs if job.size < threshold),
        key=lambda job: (-job.size, job.id),
    )

    # Group the large jobs by (bag, rounded size).
    group_jobs: dict[tuple[int, float], list[Job]] = {}
    for job in large_jobs:
        key = (job.bag, _rounded_size(job.size, eps))
        group_jobs.setdefault(key, []).append(job)
    groups = [
        (bag, size, len(jobs)) for (bag, size), jobs in sorted(group_jobs.items())
    ]

    configurations = list(
        _enumerate_configurations(groups, capacity, config.max_configurations)
    )

    solution = get_solver_service().solve(
        _configuration_ilp(
            configurations,
            groups,
            instance.num_machines,
            capacity,
            sum(job.size for job in small_jobs),
        ),
        spec=config.backend_spec,
        time_limit=config.milp_time_limit,
    )
    if not solution.is_feasible:
        return None

    # Materialise machines from configuration multiplicities.
    machine_configs: list[tuple[int, ...]] = []
    for (counts, _), multiplicity in zip(configurations, solution.x.tolist()):
        machine_configs.extend([counts] * int(round(multiplicity)))
    machine_configs = machine_configs[: instance.num_machines]
    while len(machine_configs) < instance.num_machines:
        machine_configs.append(tuple([0] * len(groups)))

    remaining: dict[int, list[Job]] = {
        group_index: sorted(group_jobs[(bag, size)], key=lambda job: (-job.size, job.id))
        for group_index, (bag, size, _) in enumerate(groups)
    }
    schedule = Schedule(instance)
    for machine, counts in enumerate(machine_configs):
        for group_index, count in enumerate(counts):
            for _ in range(count):
                if remaining[group_index]:
                    job = remaining[group_index].pop()
                    schedule.assign(job.id, machine)
    # Any large job not covered by a slot (possible when coverage exceeded
    # availability elsewhere) falls back to greedy placement.
    leftovers = [job for jobs in remaining.values() for job in jobs]
    if leftovers:
        greedy_assign(instance, sorted(leftovers, key=lambda j: -j.size), schedule=schedule)

    # Small jobs: greedy LPT onto the least loaded conflict-free machine.
    greedy_assign(instance, small_jobs, schedule=schedule)
    return schedule


def das_wiese_schedule(
    instance: Instance, *, eps: float | None = None, config: DasWieseConfig | None = None
) -> SolverResult:
    """Run the Das–Wiese-style PTAS baseline.

    Performs a geometric binary search on the target makespan; for each
    candidate the configuration ILP is solved and the resulting schedule is
    kept if it is feasible.  The best schedule over the search is returned.
    ``eps=None`` takes ``config.eps``, or 0.25 without a config; an explicit
    ``eps`` overrides the config's.
    """
    config = config or DasWieseConfig()
    if eps is not None and config.eps != eps:
        config = replace(config, eps=eps)

    diagnostics: dict[str, object] = {"search_iterations": 0}

    def build() -> Schedule:
        lower = combined_lower_bound(instance)
        upper = upper_bound_makespan(instance)
        if lower <= 0:
            lower = min(upper, 1e-9) or 1e-9
        best: Schedule | None = None
        low, high = lower, upper
        iterations = 0
        tolerance = 1.0 + min(config.eps / 4, 0.02)
        # Geometric binary search with multiplicative tolerance.
        while high / low > tolerance and iterations < 60:
            iterations += 1
            target = math.sqrt(low * high)
            schedule = _try_build_schedule(instance, target, config)
            if schedule is not None and schedule.is_conflict_free() and schedule.is_complete:
                best = schedule
                high = min(target, schedule.makespan())
            else:
                low = target
        if best is None:
            # The bracket was already tight: try the upper end once before
            # falling back to the greedy upper-bound solution.
            iterations += 1
            schedule = _try_build_schedule(instance, high, config)
            if schedule is not None and schedule.is_conflict_free() and schedule.is_complete:
                best = schedule
        if best is None:
            best = greedy_assign(
                instance, sorted(instance.jobs, key=lambda job: -job.size)
            )
        diagnostics["search_iterations"] = iterations
        return best

    return timed_solver_result(
        "das-wiese",
        build,
        params={"eps": config.eps},
        diagnostics=diagnostics,
    )
