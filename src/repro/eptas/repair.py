"""Conflict resolution after small-job placement (Lemma 11).

The Lemma-7 swap moves large jobs of priority bags away from the machine the
MILP assigned them to; the small jobs of the same bag are still placed with
respect to the *original* patterns, so a small job may now share a machine
with a moved large job of its bag.  Lemma 11 resolves such a conflict by
walking the ``origin`` map (the machine each priority large job was assigned
to by the MILP): that origin machine cannot hold a small or medium job of the
bag (MILP constraint (5) / the pattern definition), it can only be blocked by
another large job, whose origin is followed next.  Injectivity of the origin
map guarantees termination on a free machine.

The implementation keeps the paper's strategy and adds a defensive fallback
(relocate the small job to :meth:`~repro.core.schedule.Occupancy.least_loaded`,
the least-loaded machine without the bag), so the returned schedule is always
conflict-free.  Conflicts are re-read from the schedule after every move, in
the order :meth:`~repro.core.schedule.Schedule.conflicts` gives.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import AlgorithmError
from ..core.instance import Instance
from ..core.schedule import Occupancy, Schedule
from .classification import JobClasses

__all__ = ["RepairDiagnostics", "resolve_conflicts"]


@dataclass(slots=True)
class RepairDiagnostics:
    """Counters of the Lemma-11 repair stage."""

    conflicts_found: int = 0
    resolved_by_origin_chain: int = 0
    resolved_by_fallback: int = 0
    chain_steps: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "conflicts_found": self.conflicts_found,
            "resolved_by_origin_chain": self.resolved_by_origin_chain,
            "resolved_by_fallback": self.resolved_by_fallback,
            "chain_steps": self.chain_steps,
        }


def resolve_conflicts(
    instance: Instance,
    schedule: Schedule,
    job_classes: JobClasses,
    origin: dict[int, int],
) -> RepairDiagnostics:
    """Remove every remaining bag conflict from the schedule (in place).

    ``origin`` maps priority large/medium job ids to the machine the MILP
    placed them on (recorded by the large-job placement stage).  For every
    conflict the smaller job of the pair is moved: first along the Lemma-11
    origin chain, then — if the chain cannot be followed, e.g. because the
    conflict did not arise from a Lemma-7 swap — to the least loaded machine
    that has no job of the bag.
    """
    diagnostics = RepairDiagnostics()
    conflicts = schedule.conflicts()
    if not conflicts:
        return diagnostics
    occupancy = Occupancy(schedule)

    # Iterate until no conflicts remain; each iteration strictly reduces the
    # number of (machine, bag) pairs with multiplicity >= 2, so this loop
    # terminates after at most one pass per conflict.
    safety = instance.num_jobs * 2 + 10
    while safety > 0:
        safety -= 1
        if not conflicts:
            break
        conflict = conflicts[0]
        diagnostics.conflicts_found += 1
        job_a = instance.job(conflict.job_a)
        job_b = instance.job(conflict.job_b)
        # Move the smaller of the two jobs (ties: the higher id).
        mover = job_a if (job_a.size, -job_a.id) < (job_b.size, -job_b.id) else job_b
        stayer = job_b if mover is job_a else job_a
        bag = mover.bag
        machine = conflict.machine

        target: int | None = None
        # Lemma-11 origin chain, started from the heavy job of the pair.
        visited: set[int] = {machine}
        chain_job = stayer
        while chain_job is not None and chain_job.id in origin:
            candidate = origin[chain_job.id]
            diagnostics.chain_steps += 1
            if candidate in visited:
                break
            visited.add(candidate)
            blockers = [
                job_id
                for job_id, assigned in schedule.assignment.items()
                if assigned == candidate and instance.job(job_id).bag == bag
            ]
            if not blockers:
                target = candidate
                break
            blocker = instance.job(blockers[0])
            if blocker.id in job_classes.small:
                # A small job of the bag on the origin machine contradicts
                # MILP constraint (5); fall back rather than loop.
                break
            chain_job = blocker
        if target is not None:
            diagnostics.resolved_by_origin_chain += 1
        else:
            # The conflict machine holds the bag twice, so it is never chosen.
            target = occupancy.least_loaded(bag)
            if target is None:
                raise AlgorithmError(
                    f"cannot resolve conflict for bag {bag}: every machine "
                    "already holds a job of that bag"
                )
            diagnostics.resolved_by_fallback += 1

        occupancy.assign(mover, target)
        conflicts = schedule.conflicts()
    else:  # pragma: no cover - defensive
        raise AlgorithmError("conflict repair did not terminate")

    return diagnostics
