"""End-to-end EPTAS driver (Theorem 1).

``eptas_schedule(instance, eps)`` runs the full pipeline of the paper:

1. dual-approximation binary search over the guessed optimum ``T_guess``
   between the best combinatorial lower bound and the greedy (bag-aware LPT)
   upper bound;
2. for each guess: scale to ``OPT = 1``, round sizes geometrically, classify
   jobs and bags (Lemma 1, Definition 2), transform the instance
   (Section 2.2; the identity when every large and medium job sits in a
   priority bag, and then the job classes carry over), group its jobs once
   by (bag, size) for every later stage, enumerate patterns, build and solve
   the configuration MILP (Section 3);
3. when the MILP is feasible: place large/medium jobs (Lemma 7), place small
   jobs (Section 4), repair residual conflicts (Lemma 11), re-insert the
   removed medium jobs (Lemma 3) and revert the transformation (Lemma 4);
4. keep the best schedule seen; the greedy upper-bound schedule is the
   fallback, so a feasible schedule is always returned.

Every schedule handed back to the caller is validated: complete and
conflict-free on the *original* instance.  A feasible guess runs three
validations, one per distinct thing they check:

* the placement on the transformed instance, after repair.  Its bags differ
  from the original ones (fillers, companion bags), so no later check covers
  it;
* the final schedule on the original instance.  A failure here is an
  :class:`~repro.core.errors.InvalidScheduleError`, which the search records
  as an infeasible guess.  The reverted schedule on the rounded instance is
  not validated separately: it has the same assignment, job ids, bags and
  machine count, and validation never reads sizes;
* the returned schedule in :func:`~repro.core.result.timed_solver_result`,
  the only check on the greedy fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..baselines.list_scheduling import greedy_assign, lpt_order
from ..bounds import best_lower_bound
from ..core.errors import ReproError, SolverLimitError
from ..core.instance import Instance
from ..core.result import SolverResult, timed_solver_result
from ..core.schedule import Schedule
from .classification import classify_bags, classify_jobs
from .large_jobs import place_large_and_medium
from .milp import build_configuration_milp, solve_configuration_milp
from .params import EptasConfig
from .patterns import collect_entry_types, enumerate_patterns, group_jobs
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


def solve_for_guess(
    instance: Instance, guess: float, config: EptasConfig
) -> tuple[Schedule | None, AttemptReport]:
    """Run one decision step of the dual approximation.

    Scales, classifies, transforms, enumerates patterns and solves the
    configuration MILP; when it is feasible, places, repairs and reverts.
    Returns a feasible schedule of the *original* instance with makespan at
    most ``(1 + O(eps)) * guess`` when the configuration MILP admits a
    solution for the guess, and ``None`` otherwise.
    """
    report = AttemptReport(guess=guess, feasible=False)
    eps = config.eps

    working = scale_and_round(instance, eps, guess)

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
    # kept their sizes, so thresholds and k are unchanged).  The identity
    # transformation keeps every job, so its classes carry over.
    if transformed is working:
        transformed_job_classes = job_classes
    else:
        transformed_job_classes = classify_jobs(transformed, eps, k=job_classes.k)
    constants = bag_classes.constants

    # Every later stage reads this one grouping of the transformed jobs.
    table = group_jobs(transformed, transformed_job_classes, bag_classes)
    entry_types = collect_entry_types(table)
    patterns = enumerate_patterns(
        entry_types,
        budget=constants.budget,
        max_slots=constants.q,
        max_patterns=config.max_patterns,
    )
    report.num_patterns = len(patterns)

    configuration = build_configuration_milp(
        transformed, table, bag_classes, constants, patterns
    )
    summary = configuration.summary()
    report.integer_variables = int(summary.get("integer_variables", 0))
    report.continuous_variables = int(summary.get("continuous_variables", 0))
    report.constraints = int(summary.get("constraints", 0))

    solution = solve_configuration_milp(configuration, config=config)
    report.details["milp_status"] = solution.status.value
    if "lp_relaxation" in solution.milp_diagnostics:
        report.details["milp_lp_relaxation"] = solution.milp_diagnostics["lp_relaxation"]
    if not solution.feasible:
        return None, report

    placement = place_large_and_medium(transformed, table, patterns, solution)
    report.large_swaps = placement.swaps
    report.details["large_fallback_moves"] = placement.fallback_moves

    small_diag = place_small_jobs(
        transformed,
        transformed_job_classes,
        bag_classes,
        constants,
        table,
        solution,
        placement,
    )
    report.details.update(small_diag.to_dict())

    repair_diag = resolve_conflicts(
        transformed, placement.schedule, transformed_job_classes, placement.origin
    )
    report.repair_conflicts = repair_diag.conflicts_found
    report.details.update(repair_diag.to_dict())

    # The schedule now covers every job of the transformed instance.
    placement.schedule.validate(require_complete=True)

    augmented_schedule = reinsert_medium_jobs(record, placement.schedule)
    final_scaled = revert_to_original(record, augmented_schedule)
    report.details.update(record.diagnostics)

    # Map back to the original (unscaled) instance: job ids are identical,
    # so the assignment transfers verbatim.
    final = Schedule(instance, final_scaled.assignment)
    final.validate(require_complete=True)
    report.feasible = True
    report.makespan = final.makespan()
    return final, report


def eptas_schedule(
    instance: Instance,
    eps: float | None = None,
    *,
    config: EptasConfig | None = None,
) -> SolverResult:
    """The paper's EPTAS: a (1 + O(eps))-approximation for ``P | bag | C_max``.

    ``eps=None`` takes ``config.eps``, or 0.5 without a config; an explicit
    ``eps`` overrides the config's.
    """
    if config is None:
        config = EptasConfig() if eps is None else EptasConfig(eps=eps)
    elif eps is not None and config.eps != eps:
        config = replace(config, eps=eps)
    config = config.normalised()
    diagnostics: dict[str, Any] = {}

    def build() -> Schedule:
        if instance.num_jobs == 0:
            return Schedule(instance, {})

        bounds = best_lower_bound(instance)
        lower = bounds.best
        greedy = greedy_assign(instance, lpt_order(instance))
        upper = greedy.makespan()
        diagnostics["lower_bound"] = lower
        diagnostics["greedy_upper_bound"] = upper

        best_schedule = greedy
        best_makespan = upper
        best_attempt: dict[str, Any] | None = None
        attempts: list[dict[str, Any]] = []

        if lower <= 0:
            lower = min(upper, 1e-9) or 1e-9
        low, high = lower, max(upper, lower)
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
                attempts.append(
                    AttemptReport(
                        guess=guess, feasible=False, details={"limit": str(exc)}
                    ).to_dict()
                )
                break
            except ReproError as exc:
                diagnostics.setdefault("attempt_errors", []).append(str(exc))
                schedule = None
                report = AttemptReport(
                    guess=guess, feasible=False, details={"error": str(exc)}
                )
            attempts.append(report.to_dict())
            if schedule is not None:
                # solve_for_guess set report.makespan to this schedule's makespan.
                if report.makespan < best_makespan - 1e-12:
                    best_schedule = schedule
                    best_makespan = report.makespan
                    best_attempt = attempts[-1]
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
        # Describe the attempt whose schedule is returned; when the greedy
        # schedule is, fall back to the last feasible attempt, if any.
        summary_attempt = best_attempt
        if summary_attempt is None:
            feasible = [a for a in attempts if a["feasible"]]
            summary_attempt = feasible[-1] if feasible else None
        if summary_attempt is not None:
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
                diagnostics[key] = summary_attempt.get(key)
        return best_schedule

    return timed_solver_result(
        "eptas",
        build,
        params=config.to_dict(),
        diagnostics=diagnostics,
    )
