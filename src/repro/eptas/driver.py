"""End-to-end EPTAS driver (Theorem 1).

``eptas_schedule(instance, eps)`` runs the full pipeline of the paper:

1. dual-approximation binary search over the guessed optimum ``T_guess``
   between the best combinatorial lower bound and the greedy (bag-aware LPT)
   upper bound;
2. for each guess: scale to ``OPT = 1``, round sizes geometrically, classify
   jobs and bags (Lemma 1, Definition 2), transform the instance
   (Section 2.2), enumerate patterns, build and solve the configuration MILP
   (Section 3);
3. when the MILP is feasible: place large/medium jobs (Lemma 7), place small
   jobs (Section 4), repair residual conflicts (Lemma 11), re-insert the
   removed medium jobs (Lemma 3) and revert the transformation (Lemma 4);
4. keep the best schedule seen; the greedy upper-bound schedule is the
   fallback, so a feasible schedule is always returned.

Every schedule handed back to the caller is validated: complete and
conflict-free on the *original* instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..baselines.list_scheduling import greedy_assign
from ..bounds import best_lower_bound
from ..core.errors import ReproError, SolverLimitError
from ..core.instance import Instance
from ..core.result import SolverResult, timed_solver_result
from ..core.schedule import Schedule
from .classification import classify_bags, classify_jobs
from .large_jobs import place_large_and_medium
from .milp import (
    ConfigurationModel,
    ConfigurationSolution,
    build_configuration_milp,
    solve_configuration_milp,
)
from .params import EptasConfig
from .patterns import collect_entry_types, enumerate_patterns
from .repair import resolve_conflicts
from .rounding import scale_and_round
from .small_jobs import place_small_jobs
from .transformation import reinsert_medium_jobs, revert_to_original, transform_instance

__all__ = ["EptasConfig", "AttemptReport", "eptas_schedule", "solve_for_guess"]


@dataclass(slots=True)
class AttemptReport:
    """Diagnostics of one binary-search attempt (one guessed makespan)."""

    guess: float
    feasible: bool
    makespan: float | None = None
    num_patterns: int = 0
    integer_variables: int = 0
    continuous_variables: int = 0
    constraints: int = 0
    k: int = 0
    num_priority_bags: int = 0
    num_non_priority_bags: int = 0
    large_swaps: int = 0
    repair_conflicts: int = 0
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "guess": self.guess,
            "feasible": self.feasible,
            "makespan": self.makespan,
            "num_patterns": self.num_patterns,
            "integer_variables": self.integer_variables,
            "continuous_variables": self.continuous_variables,
            "constraints": self.constraints,
            "k": self.k,
            "num_priority_bags": self.num_priority_bags,
            "num_non_priority_bags": self.num_non_priority_bags,
            "large_swaps": self.large_swaps,
            "repair_conflicts": self.repair_conflicts,
            **self.details,
        }


@dataclass(slots=True)
class _PreparedGuess:
    """Everything of one decision step up to (but excluding) the MILP solve."""

    guess: float
    report: AttemptReport
    record: Any  # TransformationRecord
    transformed_job_classes: Any  # JobClasses
    bag_classes: Any  # BagClasses
    constants: Any  # DerivedConstants
    patterns: Any  # PatternSet
    configuration: ConfigurationModel


def _prepare_guess(
    instance: Instance, guess: float, config: EptasConfig
) -> _PreparedGuess:
    """Scale, classify, transform, enumerate patterns and assemble the MILP."""
    report = AttemptReport(guess=guess, feasible=False)
    eps = config.eps

    rounded = scale_and_round(instance, eps, guess)
    working = rounded.instance

    job_classes = classify_jobs(working, eps)
    bag_classes = classify_bags(
        working,
        job_classes,
        mode=config.mode,
        practical_priority_cap=config.practical_priority_cap,
    )
    report.k = job_classes.k
    report.num_priority_bags = len(bag_classes.priority)
    report.num_non_priority_bags = len(bag_classes.non_priority)

    record = transform_instance(working, job_classes, bag_classes)
    transformed = record.transformed
    # Classify the transformed jobs (fillers are new small jobs; large jobs
    # kept their sizes, so thresholds and k are unchanged).
    transformed_job_classes = classify_jobs(transformed, eps, k=job_classes.k)
    constants = bag_classes.constants

    entry_types = collect_entry_types(transformed, transformed_job_classes, bag_classes)
    patterns = enumerate_patterns(
        entry_types,
        budget=constants.budget,
        max_slots=constants.q,
        max_patterns=config.max_patterns,
    )
    report.num_patterns = len(patterns)

    configuration = build_configuration_milp(
        transformed,
        transformed_job_classes,
        bag_classes,
        constants,
        patterns,
        config=config,
    )
    summary = configuration.summary()
    report.integer_variables = int(summary.get("integer_variables", 0))
    report.continuous_variables = int(summary.get("continuous_variables", 0))
    report.constraints = int(summary.get("constraints", 0))
    return _PreparedGuess(
        guess=guess,
        report=report,
        record=record,
        transformed_job_classes=transformed_job_classes,
        bag_classes=bag_classes,
        constants=constants,
        patterns=patterns,
        configuration=configuration,
    )


def _complete_guess(
    instance: Instance,
    prepared: _PreparedGuess,
    solution: ConfigurationSolution,
    *,
    validate_intermediate: bool = False,
) -> tuple[Schedule | None, AttemptReport]:
    """Interpret a solved configuration MILP: placement, repair, revert."""
    report = prepared.report
    record = prepared.record
    transformed = record.transformed
    transformed_job_classes = prepared.transformed_job_classes
    bag_classes = prepared.bag_classes
    constants = prepared.constants
    patterns = prepared.patterns

    report.details["milp_status"] = solution.status.value
    if "telemetry" in solution.milp_diagnostics:
        report.details["milp_telemetry"] = solution.milp_diagnostics["telemetry"]
    if not solution.feasible:
        return None, report

    placement = place_large_and_medium(
        transformed, transformed_job_classes, bag_classes, patterns, solution
    )
    report.large_swaps = placement.swaps
    report.details["large_fallback_moves"] = placement.fallback_moves

    small_diag = place_small_jobs(
        transformed,
        transformed_job_classes,
        bag_classes,
        constants,
        patterns,
        solution,
        placement,
    )
    report.details.update(small_diag.to_dict())

    if validate_intermediate:
        placement.schedule.validate(require_complete=False)

    repair_diag = resolve_conflicts(
        transformed, placement.schedule, transformed_job_classes, placement.origin
    )
    report.repair_conflicts = repair_diag.conflicts_found
    report.details.update(repair_diag.to_dict())

    # The schedule now covers every job of the transformed instance.
    placement.schedule.validate(require_complete=True)

    augmented_schedule = reinsert_medium_jobs(record, placement.schedule)
    final_scaled = revert_to_original(record, augmented_schedule)
    final_scaled.validate(require_complete=True)
    report.details.update(record.diagnostics)

    # Map back to the original (unscaled) instance: job ids are identical,
    # so the assignment transfers verbatim.
    final = Schedule(instance, final_scaled.assignment)
    final.validate(require_complete=True)
    report.feasible = True
    report.makespan = final.makespan()
    return final, report


def solve_for_guess(
    instance: Instance, guess: float, config: EptasConfig
) -> tuple[Schedule | None, AttemptReport]:
    """Run one decision step of the dual approximation.

    Returns a feasible schedule of the *original* instance with makespan at
    most ``(1 + O(eps)) * guess`` when the configuration MILP admits a
    solution for the guess, and ``None`` otherwise.
    """
    prepared = _prepare_guess(instance, guess, config)
    solution = solve_configuration_milp(prepared.configuration, config=config)
    return _complete_guess(
        instance, prepared, solution, validate_intermediate=config.validate_intermediate
    )


def eptas_schedule(
    instance: Instance,
    eps: float = 0.5,
    *,
    config: EptasConfig | None = None,
) -> SolverResult:
    """The paper's EPTAS: a (1 + O(eps))-approximation for ``P | bag | C_max``."""
    if config is None:
        config = EptasConfig(eps=eps)
    elif config.eps != eps:
        config = replace(config, eps=eps)
    config = config.normalised()
    diagnostics: dict[str, Any] = {}

    def build() -> Schedule:
        if instance.num_jobs == 0:
            return Schedule(instance, {})

        bounds = best_lower_bound(instance, use_lp=config.use_lp_lower_bound)
        lower = bounds.best
        greedy = greedy_assign(
            instance, sorted(instance.jobs, key=lambda job: (-job.size, job.id))
        )
        upper = greedy.makespan()
        diagnostics["lower_bound"] = lower
        diagnostics["greedy_upper_bound"] = upper

        best_schedule = greedy
        best_makespan = upper
        attempts: list[dict[str, Any]] = []

        if lower <= 0:
            lower = min(upper, 1e-9) or 1e-9
        low, high = lower, max(upper, lower)
        tolerance = config.binary_search_tol
        if tolerance is None:
            tolerance = config.eps / 8
        # Always test the lower bound itself first: on many instances the
        # optimum equals the bound and a single MILP solve finishes the job.
        guess = low
        iterations = 0
        while iterations < config.max_search_iterations:
            iterations += 1
            try:
                schedule, report = solve_for_guess(instance, guess, config)
            except SolverLimitError as exc:
                diagnostics.setdefault("limit_errors", []).append(str(exc))
                break
            except ReproError as exc:
                diagnostics.setdefault("attempt_errors", []).append(str(exc))
                schedule, report = None, AttemptReport(guess=guess, feasible=False)
            attempts.append(report.to_dict())
            if schedule is not None:
                if schedule.makespan() < best_makespan - 1e-12:
                    best_schedule = schedule
                    best_makespan = schedule.makespan()
                high = min(high, guess)
                if guess <= low * (1.0 + 1e-12):
                    break
            elif guess < high:
                # An infeasible guess above an already-confirmed feasible
                # one contradicts monotonicity (solver noise/limits);
                # never let it push the bracket inside-out.
                low = max(low * (1 + 1e-9), guess)
            if high / low <= 1.0 + tolerance:
                break
            guess = low * (high / low) ** 0.5

        diagnostics["search_iterations"] = iterations
        diagnostics["attempts"] = attempts
        diagnostics["best_makespan"] = best_makespan
        if attempts:
            last_feasible = [a for a in attempts if a["feasible"]]
            if last_feasible:
                final_attempt = last_feasible[-1]
                for key in (
                    "num_patterns",
                    "integer_variables",
                    "continuous_variables",
                    "constraints",
                    "k",
                    "num_priority_bags",
                    "num_non_priority_bags",
                    "large_swaps",
                    "repair_conflicts",
                ):
                    diagnostics[key] = final_attempt.get(key)
        return best_schedule

    return timed_solver_result(
        "eptas",
        build,
        params=config.to_dict(),
        diagnostics=diagnostics,
    )
