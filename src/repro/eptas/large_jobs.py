"""Placement of large and medium jobs from the MILP solution (Lemma 7).

The MILP solution fixes, per machine, a pattern: dedicated slots for
(priority bag, size) pairs and wildcard slots for non-priority jobs of a
given size.  Priority slots are filled directly (the MILP already respects
the bag constraint for them).  Wildcard slots are filled greedily with jobs
from the non-priority bag that still has the most jobs of the slot size and
does not conflict on the machine; when every candidate bag conflicts, the
conflict is repaired by swapping the job with a same-size job on another
machine — the paper's Lemma 7 shows a swap partner always exists under the
theory constants, and a defensive relocation keeps the schedule feasible in
any case.

The job pools are the medium and large groups of the guess's
:class:`~repro.eptas.patterns.JobTable`; this stage does not group jobs
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import AlgorithmError
from ..core.instance import Instance
from ..core.schedule import Schedule
from .milp import ConfigurationSolution
from .patterns import JobTable, PatternSet, size_key

__all__ = ["LargePlacement", "place_large_and_medium"]


@dataclass(slots=True)
class LargePlacement:
    """Result of the large/medium placement stage.

    ``machine_pattern[i]`` is the pattern index machine ``i`` runs (``None``
    for machines without a pattern), ``pattern_height[i]`` its slot height.
    ``origin`` records, for every priority-bag job placed through a
    dedicated slot, the machine the MILP assigned it to — Lemma 11's repair
    walks these origins.
    """

    schedule: Schedule
    machine_pattern: list[int | None]
    pattern_height: list[float]
    origin: dict[int, int] = field(default_factory=dict)
    swaps: int = 0
    fallback_moves: int = 0
    unfilled_slots: int = 0


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
    pattern_height = [
        patterns.patterns[index].height if index is not None else 0.0
        for index in machine_pattern
    ]

    schedule = Schedule(instance, allow_partial=True)
    machine_bags: list[set[int]] = [set() for _ in range(num_machines)]
    placement = LargePlacement(
        schedule=schedule,
        machine_pattern=machine_pattern,
        pattern_height=pattern_height,
    )

    # ------------------------------------------------------------------
    # 2. Job pools: the table's groups, reversed so pop() takes the
    #    smallest id.
    # ------------------------------------------------------------------
    priority_pool = {key: list(reversed(ids)) for key, ids in table.priority.items()}
    wildcard_pool = {  # size -> bag -> job ids
        size: {bag: list(reversed(ids)) for bag, ids in per_bag.items()}
        for size, per_bag in table.wildcard.items()
    }

    def assign(job_id: int, machine: int) -> None:
        schedule.assign(job_id, machine)
        machine_bags[machine].add(instance.job(job_id).bag)

    # ------------------------------------------------------------------
    # 3. Dedicated priority slots.
    # ------------------------------------------------------------------
    wildcard_slots: list[tuple[int, float]] = []  # (machine, size)
    for machine, pattern_index in enumerate(machine_pattern):
        if pattern_index is None:
            continue
        pattern = patterns.patterns[pattern_index]
        for (bag, size), count in pattern.priority_slots().items():
            for _ in range(count):
                pool = priority_pool.get((bag, size), [])
                if not pool:
                    placement.unfilled_slots += 1
                    continue
                job_id = pool.pop()
                assign(job_id, machine)
                placement.origin[job_id] = machine
        for size, count in pattern.wildcard_slots().items():
            wildcard_slots.extend([(machine, size)] * count)

    # ------------------------------------------------------------------
    # 4. Wildcard slots: greedy "largest remaining bag first".
    # ------------------------------------------------------------------
    conflicts: list[tuple[int, int, float]] = []  # (job id, machine, size)
    for machine, size in wildcard_slots:
        per_bag = wildcard_pool.get(size, {})
        candidates = [(len(pool), bag) for bag, pool in per_bag.items() if pool]
        if not candidates:
            placement.unfilled_slots += 1
            continue
        non_conflicting = [
            (count, bag) for count, bag in candidates if bag not in machine_bags[machine]
        ]
        if non_conflicting:
            _, bag = max(non_conflicting)
            job_id = per_bag[bag].pop()
            assign(job_id, machine)
        else:
            # Unavoidable for now: place the job and repair afterwards.
            _, bag = max(candidates)
            job_id = per_bag[bag].pop()
            schedule.assign(job_id, machine)
            conflicts.append((job_id, machine, size))
            machine_bags[machine].add(bag)

    # ------------------------------------------------------------------
    # 5. Lemma-7 swap repair for wildcard conflicts.
    # ------------------------------------------------------------------
    same_size_jobs: dict[float, list[int]] = {}
    for job_id, machine in schedule.assignment.items():
        job = instance.job(job_id)
        same_size_jobs.setdefault(size_key(job.size), []).append(job_id)

    for job_id, machine, size in conflicts:
        bag = instance.job(job_id).bag
        # The machine currently holds two jobs of `bag` (the conflict);
        # search for a same-size job on another machine that can trade places.
        partner: int | None = None
        for candidate_id in same_size_jobs.get(size, []):
            if candidate_id == job_id:
                continue
            candidate_machine = schedule.machine_of(candidate_id)
            if candidate_machine is None or candidate_machine == machine:
                continue
            candidate_bag = instance.job(candidate_id).bag
            if bag in machine_bags[candidate_machine]:
                continue  # moving our job there would conflict again
            if candidate_bag == bag or candidate_bag in machine_bags[machine]:
                # After the swap the conflict machine still holds its other
                # job of `bag`, so the partner must come from a bag not yet
                # present on that machine.
                continue
            partner = candidate_id
            break
        if partner is not None:
            partner_machine = schedule.machine_of(partner)
            assert partner_machine is not None
            partner_bag = instance.job(partner).bag
            schedule.swap(job_id, partner)
            # The conflict machine keeps its other job of `bag`, gains the
            # partner's bag; the partner's machine gains `bag` and may or may
            # not keep the partner's bag (other jobs of that bag untouched).
            machine_bags[machine].add(partner_bag)
            machine_bags[partner_machine].add(bag)
            machine_bags[partner_machine] = {
                instance.job(jid).bag
                for jid, m in schedule.assignment.items()
                if m == partner_machine
            }
            placement.swaps += 1
        else:
            # Defensive relocation (never needed under the theory constants):
            # move the conflicting job to the least-loaded machine without
            # its bag.  This may exceed the pattern height of that machine
            # but keeps the schedule feasible.
            loads = schedule.loads()
            candidates = [
                m
                for m in range(num_machines)
                if m != machine and bag not in machine_bags[m]
            ]
            if not candidates:
                raise AlgorithmError(
                    f"cannot repair conflict for job {job_id}: every machine "
                    f"already holds a job of bag {bag}"
                )
            target = min(candidates, key=lambda m: loads[m])
            schedule.assign(job_id, target)
            # The conflict machine keeps its other job of `bag`, so its bag
            # set is unchanged; the target machine gains `bag`.
            machine_bags[target].add(bag)
            placement.fallback_moves += 1

    return placement
