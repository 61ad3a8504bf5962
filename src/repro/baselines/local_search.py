"""Local-search post-optimisation for bag-constrained schedules.

The paper's algorithm (and every baseline here) produces a feasible schedule
whose quality is certified analytically or empirically.  In practice a cheap
local search squeezes out the remaining slack: it repeatedly tries to

* **move** a job from the busiest machine to a less loaded machine, or
* **swap** a job of the busiest machine with a smaller job elsewhere,

accepting only changes that keep the schedule feasible (no two jobs of one
bag on a machine) and strictly reduce the makespan (or, as a tie-break,
reduce the load of the busiest machine).  This is the classical
move/swap neighbourhood of makespan scheduling restricted to bag-feasible
moves; it terminates because the sorted load vector decreases
lexicographically with every accepted step.

The local search is exposed both as a standalone improver
(:func:`improve_schedule`) and as a solver wrapper
(:func:`local_search_schedule`) that runs bag-aware LPT first and then
improves it — a strong, fast baseline that the ablation experiment (E10)
and the examples use.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.instance import Instance
from ..core.result import SolverResult, timed_solver_result
from ..core.schedule import Occupancy, Schedule
from .list_scheduling import greedy_assign, lpt_order

__all__ = ["LocalSearchStats", "improve_schedule", "local_search_schedule"]


@dataclass(slots=True)
class LocalSearchStats:
    """Counters describing one local-search run."""

    moves: int = 0
    swaps: int = 0
    rounds: int = 0
    initial_makespan: float = 0.0
    final_makespan: float = 0.0

    @property
    def improvement(self) -> float:
        """Absolute makespan reduction achieved."""
        return self.initial_makespan - self.final_makespan

    def to_dict(self) -> dict[str, float | int]:
        return {
            "moves": self.moves,
            "swaps": self.swaps,
            "rounds": self.rounds,
            "initial_makespan": self.initial_makespan,
            "final_makespan": self.final_makespan,
            "improvement": self.improvement,
        }


def improve_schedule(
    schedule: Schedule,
    *,
    max_rounds: int = 1000,
    tolerance: float = 1e-12,
) -> LocalSearchStats:
    """Improve a feasible schedule in place with bag-feasible moves and swaps.

    Parameters
    ----------
    schedule:
        A complete, feasible schedule; it is modified in place.
    max_rounds:
        Safety cap on improvement rounds (each round applies one accepted
        move or swap).  The search usually stalls long before the cap.
    tolerance:
        Minimum required decrease of the busiest-machine load.

    Returns
    -------
    LocalSearchStats
        Counters, including the initial and final makespan.
    """
    schedule.validate(require_complete=True)
    occupancy = Occupancy(schedule)
    loads, bags = occupancy.loads, occupancy.bags
    jobs_on = schedule.machine_jobs()
    stats = LocalSearchStats(initial_makespan=max(loads) if loads else 0.0)

    for _ in range(max_rounds):
        stats.rounds += 1
        busiest = max(range(len(loads)), key=lambda m: loads[m])
        busiest_load = loads[busiest]
        improved = False

        # --- try moves: job from the busiest machine to a lighter machine.
        for job in sorted(jobs_on[busiest], key=lambda j: -j.size):
            for target in sorted(range(len(loads)), key=lambda m: loads[m]):
                if target == busiest:
                    continue
                if job.bag in bags[target]:
                    continue
                if loads[target] + job.size >= busiest_load - tolerance:
                    continue
                # accept the move
                occupancy.assign(job, target)
                jobs_on[busiest].remove(job)
                jobs_on[target].append(job)
                stats.moves += 1
                improved = True
                break
            if improved:
                break
        if improved:
            continue

        # --- try swaps: exchange a big job on the busiest machine with a
        #     smaller job elsewhere.
        for job in sorted(jobs_on[busiest], key=lambda j: -j.size):
            for target in sorted(range(len(loads)), key=lambda m: loads[m]):
                if target == busiest:
                    continue
                for other in sorted(jobs_on[target], key=lambda j: j.size):
                    delta = job.size - other.size
                    if delta <= tolerance:
                        break  # other jobs on this machine are only bigger
                    # feasibility after the swap
                    if job.bag != other.bag:
                        if job.bag in bags[target]:
                            continue
                        if other.bag in bags[busiest]:
                            continue
                    new_busiest = busiest_load - delta
                    new_target = loads[target] + delta
                    if max(new_busiest, new_target) >= busiest_load - tolerance:
                        continue
                    occupancy.swap(job, other)
                    jobs_on[busiest].remove(job)
                    jobs_on[busiest].append(other)
                    jobs_on[target].remove(other)
                    jobs_on[target].append(job)
                    stats.swaps += 1
                    improved = True
                    break
                if improved:
                    break
            if improved:
                break
        if not improved:
            break

    stats.final_makespan = max(loads) if loads else 0.0
    return stats


def local_search_schedule(
    instance: Instance, *, max_rounds: int = 1000
) -> SolverResult:
    """Bag-aware LPT followed by move/swap local search."""
    diagnostics: dict[str, object] = {}

    def build() -> Schedule:
        schedule = greedy_assign(instance, lpt_order(instance))
        stats = improve_schedule(schedule, max_rounds=max_rounds)
        diagnostics.update(stats.to_dict())
        return schedule

    return timed_solver_result(
        "lpt+local-search",
        build,
        params={"max_rounds": max_rounds},
        diagnostics=diagnostics,
    )
