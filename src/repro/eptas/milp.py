"""The configuration MILP of Section 3 (constraints (1)–(9)).

Integer variables ``x_p`` count the machines running pattern ``p``;
variables ``y_p^{B_l^s}`` describe how many small jobs of bag ``B_l`` and
size ``s`` are placed on top of pattern ``p``.  Only the ``y`` variables of
priority bags with size above ``eps**(2k+11)`` are integral — all other
``y`` variables stay fractional, which is what keeps the integral dimension
independent of the number of bags (the paper's core idea).

The module builds the model with :class:`repro.milp.LinearModel`, solves it
with the configured backend and returns a structured
:class:`ConfigurationSolution` that the placement stages consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..core.instance import Instance
from ..milp import LinearModel, MilpSolution, SolutionStatus
from ..solver import get_solver_service
from .classification import BagClasses, JobClasses, SIZE_TOL
from .params import DerivedConstants, EptasConfig
from .patterns import Pattern, PatternSet, size_key

__all__ = [
    "SmallClass",
    "ConfigurationModel",
    "ConfigurationSolution",
    "build_configuration_milp",
    "interpret_milp_solution",
    "solve_configuration_milp",
]


@dataclass(frozen=True, slots=True)
class SmallClass:
    """A size-restricted bag of small jobs: bag index, size, member job ids."""

    bag: int
    size: float
    job_ids: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.job_ids)


@dataclass(slots=True)
class ConfigurationModel:
    """The assembled MILP plus the bookkeeping needed to interpret solutions."""

    model: LinearModel
    patterns: PatternSet
    small_classes: tuple[SmallClass, ...]
    budget: float
    # Variable-name helpers.
    x_name: Mapping[int, str]
    y_name: Mapping[tuple[int, int, float], str]

    def summary(self) -> dict[str, int | float]:
        data = dict(self.model.summary())
        data.update(self.patterns.summary())
        data["small_classes"] = len(self.small_classes)
        return data


@dataclass(slots=True)
class ConfigurationSolution:
    """Interpreted MILP solution.

    ``pattern_machines[p]`` is the number of machines assigned pattern index
    ``p``; ``small_assignment[(p, bag, size)]`` the (possibly fractional)
    number of small jobs of that class placed on top of pattern ``p``.
    """

    feasible: bool
    status: SolutionStatus
    pattern_machines: dict[int, int] = field(default_factory=dict)
    small_assignment: dict[tuple[int, int, float], float] = field(default_factory=dict)
    objective: float = 0.0
    model_summary: dict[str, int | float] = field(default_factory=dict)
    milp_diagnostics: dict[str, object] = field(default_factory=dict)


def _collect_small_classes(
    instance: Instance, job_classes: JobClasses
) -> tuple[SmallClass, ...]:
    """Group the small jobs by (bag, size)."""
    groups: dict[tuple[int, float], list[int]] = {}
    for job in instance.jobs:
        if job.id not in job_classes.small:
            continue
        groups.setdefault((job.bag, size_key(job.size)), []).append(job.id)
    return tuple(
        SmallClass(bag=bag, size=size, job_ids=tuple(sorted(ids)))
        for (bag, size), ids in sorted(groups.items())
    )


def build_configuration_milp(
    instance: Instance,
    job_classes: JobClasses,
    bag_classes: BagClasses,
    constants: DerivedConstants,
    patterns: PatternSet,
    *,
    config: EptasConfig,
) -> ConfigurationModel:
    """Assemble the MILP (1)–(9) for the transformed instance."""
    budget = constants.budget
    model = LinearModel(f"eptas-{instance.name}")
    small_classes = _collect_small_classes(instance, job_classes)

    # --- x variables: machines per pattern (constraint (6)). -----------
    x_name: dict[int, str] = {}
    for index, pattern in enumerate(patterns.patterns):
        name = f"x_{index}"
        x_name[index] = name
        # Objective: any feasible solution certifies the makespan bound, so
        # the objective is a free practical tie-breaker.  The squared pattern
        # height steers the solver towards *balanced* large-job placements
        # (stacking two large jobs costs more than spreading them), which
        # tightens the constructed schedule without affecting the guarantee.
        model.add_variable(
            name, integer=True, lower=0.0, objective=pattern.height * pattern.height
        )

    # --- y variables (constraints (7), (8), (9)). -----------------------
    # Only create y_{p, class} when the pattern leaves room for the size and
    # the pattern does not already use the bag (constraint (5) would force
    # the variable to zero anyway) — this keeps the model compact without
    # excluding any solution the Lemma-5 construction might need.
    y_name: dict[tuple[int, int, float], str] = {}
    threshold = constants.small_integral_threshold
    for index, pattern in enumerate(patterns.patterns):
        headroom = budget - pattern.height + SIZE_TOL
        for small in small_classes:
            if small.size > headroom:
                continue
            if small.bag in bag_classes.priority and pattern.uses_bag(small.bag):
                continue
            name = f"y_{index}_{small.bag}_{small.size:.12g}"
            y_name[(index, small.bag, small.size)] = name
            integral = small.bag in bag_classes.priority and small.size > threshold
            model.add_variable(name, integer=integral, lower=0.0)

    # --- (1) at most m machines. ----------------------------------------
    model.add_le(
        "machines",
        {x_name[index]: 1.0 for index in range(len(patterns.patterns))},
        float(instance.num_machines),
    )

    # --- (2) cover every medium/large job. -------------------------------
    # Priority size-restricted bags.
    priority_requirements: dict[tuple[int, float], int] = {}
    wildcard_requirements: dict[float, int] = {}
    for entry, available in patterns.entry_types:
        if entry.is_wildcard:
            wildcard_requirements[entry.size] = available
        else:
            priority_requirements[(entry.bag, entry.size)] = available
    for (bag, size), required in sorted(priority_requirements.items()):
        coefficients: dict[str, float] = {}
        for index, pattern in enumerate(patterns.patterns):
            count = pattern.priority_slots().get((bag, size), 0)
            if count:
                coefficients[x_name[index]] = float(count)
        model.add_ge(f"cover_p_{bag}_{size:.12g}", coefficients, float(required))
    for size, required in sorted(wildcard_requirements.items()):
        coefficients = {}
        for index, pattern in enumerate(patterns.patterns):
            count = pattern.wildcard_slots().get(size, 0)
            if count:
                coefficients[x_name[index]] = float(count)
        model.add_ge(f"cover_x_{size:.12g}", coefficients, float(required))

    # --- (3) cover every small job. --------------------------------------
    for small in small_classes:
        coefficients = {
            y_name[(index, small.bag, small.size)]: 1.0
            for index in range(len(patterns.patterns))
            if (index, small.bag, small.size) in y_name
        }
        model.add_ge(
            f"cover_s_{small.bag}_{small.size:.12g}", coefficients, float(small.count)
        )

    # --- (4) area on top of a pattern fits the leftover budget. ----------
    for index, pattern in enumerate(patterns.patterns):
        coefficients = {}
        for small in small_classes:
            key = (index, small.bag, small.size)
            if key in y_name:
                coefficients[y_name[key]] = small.size
        coefficients[x_name[index]] = -(budget - pattern.height)
        model.add_le(f"area_{index}", coefficients, 0.0)

    # --- (5) at most x_p small jobs of a bag on pattern p, none if the
    #          pattern already carries the bag. ---------------------------
    # ``small_classes`` is sorted by (bag, size), so the bags come in
    # increasing order and each bag's classes by size.
    classes_by_bag: dict[int, list[SmallClass]] = {}
    for small in small_classes:
        classes_by_bag.setdefault(small.bag, []).append(small)
    for index, pattern in enumerate(patterns.patterns):
        for bag, classes in classes_by_bag.items():
            keys = [
                (index, bag, small.size)
                for small in classes
                if (index, bag, small.size) in y_name
            ]
            if not keys:
                continue
            coefficients = {y_name[key]: 1.0 for key in keys}
            uses = 1 if (bag in bag_classes.priority and pattern.uses_bag(bag)) else 0
            coefficients[x_name[index]] = -(1.0 - uses)
            model.add_le(f"bagcap_{index}_{bag}", coefficients, 0.0)

    return ConfigurationModel(
        model=model,
        patterns=patterns,
        small_classes=small_classes,
        budget=budget,
        x_name=x_name,
        y_name=y_name,
    )


def interpret_milp_solution(
    configuration: ConfigurationModel, solution: MilpSolution
) -> ConfigurationSolution:
    """Turn a raw backend solution into the structured configuration view."""
    summary = configuration.summary()
    diagnostics = dict(solution.diagnostics)
    if solution.telemetry is not None:
        diagnostics["telemetry"] = solution.telemetry.to_dict()
    if solution.status not in (SolutionStatus.OPTIMAL, SolutionStatus.FEASIBLE):
        return ConfigurationSolution(
            feasible=False,
            status=solution.status,
            model_summary=summary,
            milp_diagnostics=diagnostics,
        )

    pattern_machines: dict[int, int] = {}
    for index, name in configuration.x_name.items():
        value = int(round(solution.value(name)))
        if value > 0:
            pattern_machines[index] = value
    small_assignment: dict[tuple[int, int, float], float] = {}
    for key, name in configuration.y_name.items():
        value = solution.value(name)
        if value > 1e-9:
            small_assignment[key] = float(value)
    return ConfigurationSolution(
        feasible=True,
        status=solution.status,
        pattern_machines=pattern_machines,
        small_assignment=small_assignment,
        objective=solution.objective,
        model_summary=summary,
        milp_diagnostics=diagnostics,
    )


def solve_configuration_milp(
    configuration: ConfigurationModel, *, config: EptasConfig
) -> ConfigurationSolution:
    """Solve the configuration MILP through the current solver service."""
    solution = get_solver_service().solve(
        configuration.model,
        spec=config.backend_spec,
        time_limit=config.milp_time_limit,
        mip_rel_gap=config.mip_rel_gap,
    )
    return interpret_milp_solution(configuration, solution)
