"""Placement of large and medium jobs from the MILP solution (Lemma 7).

The MILP solution fixes, per machine, a pattern: dedicated slots for
(priority bag, size) pairs and wildcard slots for non-priority jobs of a
given size.  Priority slots are filled directly (the MILP already respects
the bag constraint for them).  Wildcard slots are filled greedily with jobs
from the non-priority bag that still has the most jobs of the slot size and
does not conflict on the machine; when every candidate bag conflicts, the
conflict is repaired by swapping the job with a same-size job on another
machine — the paper's Lemma 7 shows a swap partner always exists under the
theory constants, and a defensive relocation to
:meth:`~repro.core.schedule.Occupancy.least_loaded` keeps the schedule
feasible in any case.  The stage places, swaps and relocates through one
:class:`~repro.core.schedule.Occupancy`, whose bag counts are the conflict
test.

The job pools are the medium and large groups of the guess's
:class:`~repro.eptas.patterns.JobTable`; this stage does not group jobs
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import AlgorithmError
from ..core.instance import Instance
from ..core.schedule import Occupancy, Schedule
from .milp import ConfigurationSolution
from .patterns import JobTable, PatternSet, size_key

__all__ = ["LargePlacement", "place_large_and_medium"]


@dataclass(slots=True)
class LargePlacement:
    """Result of the large/medium placement stage.

    ``machine_pattern[i]`` is the pattern index machine ``i`` runs (``None``
    for machines without a pattern).  ``origin`` records, for every
    priority-bag job placed through a dedicated slot, the machine the MILP
    assigned it to — Lemma 11's repair walks these origins.
    """

    schedule: Schedule
    machine_pattern: list[int | None]
    origin: dict[int, int] = field(default_factory=dict)
    swaps: int = 0
    fallback_moves: int = 0


def place_large_and_medium(
    instance: Instance,
    table: JobTable,
    patterns: PatternSet,
    solution: ConfigurationSolution,
) -> LargePlacement:
    """Materialise machines from the MILP and place all medium/large jobs.

    The jobs come from the guess's :class:`~repro.eptas.patterns.JobTable`;
    every slot takes the smallest job id left of its kind.
    """
    num_machines = instance.num_machines

    # ------------------------------------------------------------------
    # 1. Materialise machines: one machine per unit of x_p.
    # ------------------------------------------------------------------
    machine_pattern: list[int | None] = []
    for pattern_index, count in sorted(solution.pattern_machines.items()):
        machine_pattern.extend([pattern_index] * count)
    if len(machine_pattern) > num_machines:
        raise AlgorithmError(
            f"MILP used {len(machine_pattern)} machines but only "
            f"{num_machines} exist (constraint (1) violated)"
        )
    while len(machine_pattern) < num_machines:
        machine_pattern.append(None)

    occupancy = Occupancy(Schedule(instance))
    schedule, bags = occupancy.schedule, occupancy.bags
    placement = LargePlacement(schedule=schedule, machine_pattern=machine_pattern)

    # ------------------------------------------------------------------
    # 2. Job pools: the table's groups, reversed so pop() takes the
    #    smallest id.
    # ------------------------------------------------------------------
    priority_pool = {key: list(reversed(ids)) for key, ids in table.priority.items()}
    wildcard_pool = {  # size -> bag -> job ids
        size: {bag: list(reversed(ids)) for bag, ids in per_bag.items()}
        for size, per_bag in table.wildcard.items()
    }

    # ------------------------------------------------------------------
    # 3. Dedicated priority slots.
    # ------------------------------------------------------------------
    # Each used pattern's slots, read once however many machines run it.
    slots_of = {
        pattern_index: (
            patterns.patterns[pattern_index].priority_slots(),
            patterns.patterns[pattern_index].wildcard_slots(),
        )
        for pattern_index in solution.pattern_machines
    }
    wildcard_slots: list[tuple[int, float]] = []  # (machine, size)
    for machine, pattern_index in enumerate(machine_pattern):
        if pattern_index is None:
            continue
        priority_slots, pattern_wildcards = slots_of[pattern_index]
        for (bag, size), count in priority_slots.items():
            for _ in range(count):
                pool = priority_pool.get((bag, size), [])
                if not pool:
                    continue
                job_id = pool.pop()
                occupancy.assign(instance.job(job_id), machine)
                placement.origin[job_id] = machine
        for size, count in pattern_wildcards.items():
            wildcard_slots.extend([(machine, size)] * count)

    # ------------------------------------------------------------------
    # 4. Wildcard slots: greedy "largest remaining bag first".
    # ------------------------------------------------------------------
    conflicts: list[tuple[int, int, float]] = []  # (job id, machine, size)
    for machine, size in wildcard_slots:
        per_bag = wildcard_pool.get(size, {})
        candidates = [(len(pool), bag) for bag, pool in per_bag.items() if pool]
        if not candidates:
            continue
        non_conflicting = [(count, bag) for count, bag in candidates if bag not in bags[machine]]
        _, bag = max(non_conflicting or candidates)
        job_id = per_bag[bag].pop()
        occupancy.assign(instance.job(job_id), machine)
        if not non_conflicting:
            # Unavoidable for now: place the job and repair afterwards.
            conflicts.append((job_id, machine, size))

    # ------------------------------------------------------------------
    # 5. Lemma-7 swap repair for wildcard conflicts.
    # ------------------------------------------------------------------
    if not conflicts:
        return placement
    # Placed jobs by size, in placement order: the swap partners.
    same_size_jobs: dict[float, list[int]] = {}
    for job_id in schedule.assignment:
        same_size_jobs.setdefault(size_key(instance.job(job_id).size), []).append(job_id)

    for job_id, machine, size in conflicts:
        job = instance.job(job_id)
        # The machine currently holds two jobs of `job.bag` (the conflict);
        # search for a same-size job on another machine that can trade places.
        partner: int | None = None
        for candidate_id in same_size_jobs.get(size, []):
            if candidate_id == job_id:
                continue
            candidate_machine = schedule.machine_of(candidate_id)
            if candidate_machine is None or candidate_machine == machine:
                continue
            candidate_bag = instance.job(candidate_id).bag
            if job.bag in bags[candidate_machine]:
                continue  # moving our job there would conflict again
            if candidate_bag == job.bag or candidate_bag in bags[machine]:
                # After the swap the conflict machine still holds its other
                # job of `job.bag`, so the partner must come from a bag not
                # yet present on that machine.
                continue
            partner = candidate_id
            break
        if partner is not None:
            occupancy.swap(job, instance.job(partner))
            placement.swaps += 1
        else:
            # Defensive relocation (never needed under the theory constants):
            # move the conflicting job to the least-loaded machine without
            # its bag.  This may exceed the pattern height of that machine
            # but keeps the schedule feasible.
            target = occupancy.least_loaded(job.bag)
            if target is None:
                raise AlgorithmError(
                    f"cannot repair conflict for job {job_id}: every machine "
                    f"already holds a job of bag {job.bag}"
                )
            occupancy.assign(job, target)
            placement.fallback_moves += 1

    return placement
