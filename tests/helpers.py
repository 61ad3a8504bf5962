"""Importable helpers shared across test modules.

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import ...``, which breaks as soon as another ``conftest.py``
(e.g. ``benchmarks/conftest.py``) shadows the name on ``sys.path``.  Keeping
them in a regular module makes the import unambiguous: pytest inserts the
``tests/`` directory into ``sys.path`` (rootdir-relative, no ``__init__.py``),
so ``from helpers import ...`` always resolves here.
"""

from __future__ import annotations

import heapq
from typing import Any, Hashable, Iterable, Mapping, Sequence

import numpy as np
from hypothesis import strategies as st

from repro.baselines.lpt import LptBag, lpt_sorted
from repro.core import Instance, InvalidInstanceError, Job, Occupancy, Schedule
from repro.core.errors import AlgorithmError
from repro.eptas.classification import BagClasses, JobClasses
from repro.eptas.patterns import JobTable, SmallClass, size_key
from repro.milp import LinearModel, Sense

__all__ = [
    "assert_feasible",
    "assert_same_model",
    "build_model",
    "drawn_instances",
    "lpt_bag",
    "make_instance",
    "make_jobs",
    "reference_bag_lpt",
    "reference_greedy_assign",
    "reference_group_bag_lpt",
    "reference_group_jobs",
    "reference_place_non_priority_bags",
    "reference_resized",
]


def assert_feasible(schedule: Schedule) -> None:
    """Assert a schedule is complete and conflict-free."""
    report = schedule.validation_report()
    assert report.is_feasible, report.summary()


@st.composite
def drawn_instances(draw, max_jobs: int = 24, max_machines: int = 6) -> Instance:
    """A valid instance with ties: 1 to ``max_machines`` machines, up to
    ``max_jobs`` jobs with ids in a random order, sizes from a short list or
    any float in [0, 10], and bag labels from 0 to 5 (a bag with ``m`` jobs
    passes a job on to the next label)."""
    num_machines = draw(st.integers(min_value=1, max_value=max_machines))
    size = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    )
    counts: dict[int, int] = {}
    jobs = []
    for job_id in draw(st.permutations(range(draw(st.integers(0, max_jobs))))):
        bag = draw(st.integers(min_value=0, max_value=5))
        while counts.get(bag, 0) == num_machines:
            bag += 1
        counts[bag] = counts.get(bag, 0) + 1
        jobs.append(Job(id=job_id, size=draw(size), bag=bag))
    return Instance(jobs, num_machines, name="drawn")


def reference_greedy_assign(
    instance: Instance,
    order: Sequence[Job] | None = None,
    *,
    schedule: Schedule | None = None,
) -> Schedule:
    """``greedy_assign`` as a heap that may hold stale entries: pop until a
    current entry of a machine without the job's bag, stash the conflicting
    ones and push them back.  The oracle for the one-entry-per-machine heap."""
    jobs = list(order) if order is not None else list(instance.jobs)
    occupancy = Occupancy(schedule if schedule is not None else Schedule(instance))
    schedule = occupancy.schedule
    loads, bags = occupancy.loads, occupancy.bags
    heap: list[tuple[float, int]] = [(load, machine) for machine, load in enumerate(loads)]
    heapq.heapify(heap)
    for job in jobs:
        if job.id in schedule:
            continue
        stash: list[tuple[float, int]] = []
        chosen: int | None = None
        while heap:
            load, machine = heapq.heappop(heap)
            if load != loads[machine]:
                heapq.heappush(heap, (loads[machine], machine))
                continue
            if job.bag in bags[machine]:
                stash.append((load, machine))
                continue
            chosen = machine
            break
        for entry in stash:
            heapq.heappush(heap, entry)
        if chosen is None:
            raise InvalidInstanceError(
                f"no conflict-free machine for job {job.id} of bag {job.bag}; "
                f"bag has more jobs than machines"
            )
        occupancy.assign(job, chosen)
        heapq.heappush(heap, (loads[chosen], chosen))
    return schedule


def make_instance(sizes, bags, machines, name="test") -> Instance:
    return Instance.from_sizes(list(sizes), bags=list(bags), num_machines=machines, name=name)


def make_jobs(*specs: tuple[float, int]) -> list[Job]:
    """Build jobs from (size, bag) tuples with sequential ids."""
    return [Job(id=i, size=float(size), bag=int(bag)) for i, (size, bag) in enumerate(specs)]


def build_model(
    columns: Mapping[str, Mapping[str, Any]],
    rows: Iterable[tuple[str, Sense, Mapping[str, float], float]] = (),
    name: str = "model",
) -> LinearModel:
    """A model from ``{column: attributes}`` and ``(name, sense, {column:
    coefficient}, rhs)`` rows.

    The attributes are the keywords of ``add_columns`` (``lower``, ``upper``,
    ``integer``, ``objective``) with its defaults; ``upper=None`` means
    unbounded.  The columns go in as one block, in the mapping's order, and
    each row as a one-row block of ``add_constraints``, in order.  A row
    naming an unknown column raises ``KeyError``.
    """
    model = LinearModel(name)
    names = list(columns)
    position = {column: index for index, column in enumerate(names)}

    def attribute(key: str, default: Any) -> list[Any]:
        return [columns[column].get(key, default) for column in names]

    model.add_columns(
        names,
        lower=attribute("lower", 0.0),
        upper=[np.inf if upper is None else upper for upper in attribute("upper", None)],
        integer=attribute("integer", False),
        objective=attribute("objective", 0.0),
    )
    for row_name, sense, coefficients, rhs in rows:
        model.add_constraints(
            [row_name],
            sense,
            [rhs],
            row=[0] * len(coefficients),
            col=[position[column] for column in coefficients],
            value=list(coefficients.values()),
        )
    return model


def _same_array(actual: np.ndarray, expected: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ, as in a digest."""
    return (
        actual.dtype == expected.dtype
        and actual.shape == expected.shape
        and actual.tobytes() == expected.tobytes()
    )


def _row_names(model: LinearModel) -> list[tuple[str, Sense]]:
    """Each row's name and sense, in insertion order (read from the row blocks)."""
    return [(name, block.sense) for block in model._rows for name in block.names]


def assert_same_model(model: LinearModel, reference: LinearModel) -> None:
    """Same size, row names and senses, and compiled arrays equal byte for byte."""
    assert model.summary() == reference.summary()
    assert _row_names(model) == _row_names(reference)
    compiled, expected = model.compile(), reference.compile()
    assert compiled.variable_names == expected.variable_names
    for field in ("objective", "lower", "upper", "integrality", "b_ub", "b_eq"):
        assert _same_array(getattr(compiled, field), getattr(expected, field)), field
    for field in ("a_ub", "a_eq"):
        matrix, wanted = getattr(compiled, field), getattr(expected, field)
        assert matrix.shape == wanted.shape, field
        for part in ("indptr", "indices", "data"):
            assert _same_array(getattr(matrix, part), getattr(wanted, part)), (field, part)


def lpt_bag(jobs: Sequence[Job]) -> LptBag:
    """A bag of jobs as bag-LPT and group-bag-LPT take it: ids and sizes,
    largest job first, ties by id."""
    return lpt_sorted([job.id for job in jobs], [job.size for job in jobs])


# ----------------------------------------------------------------------
# References: the Job-based code the id-and-size kernels replaced.
# ----------------------------------------------------------------------
def _by_size_then_id(jobs: Sequence[Job]) -> list[Job]:
    ordered = sorted(jobs, key=lambda job: job.id)
    ordered.sort(key=lambda job: job.size, reverse=True)
    return ordered


def reference_bag_lpt(
    machines: Sequence[Hashable],
    initial_loads: Mapping[Hashable, float],
    bags: Sequence[Sequence[Job]],
) -> tuple[dict[int, Hashable], dict[Hashable, float]]:
    """Bag-LPT over bags of jobs in any order: ``(assignment, loads)``.  Each
    bag is sorted by (size descending, id), and the machines by load, ties by
    ``str``; the job-by-job oracle for :func:`repro.baselines.lpt.bag_lpt`."""
    machine_list = list(machines)
    if not machine_list:
        if any(len(bag) for bag in bags):
            raise AlgorithmError("bag-LPT called with jobs but no machines")
        return {}, {}
    loads = {machine: float(initial_loads.get(machine, 0.0)) for machine in machine_list}
    assignment: dict[int, Hashable] = {}
    by_label = sorted(machine_list, key=str)
    for bag in bags:
        if len(bag) > len(machine_list):
            raise AlgorithmError("bag-LPT: a bag has more jobs than the group has machines")
        for job, machine in zip(_by_size_then_id(bag), sorted(by_label, key=loads.__getitem__)):
            assignment[job.id] = machine
            loads[machine] += job.size
    return assignment, loads


def reference_group_bag_lpt(
    group_sizes: Mapping[int, int],
    group_average_loads: Mapping[int, float],
    bags: Sequence[Sequence[Job]],
) -> tuple[dict[int, list[list[Job]]], dict[int, float]]:
    """Group-bag-LPT over bags of jobs in any order: ``(chunks per group,
    area per group)``; the oracle for :func:`repro.baselines.lpt.group_bag_lpt`."""
    total_capacity = sum(group_sizes.values())
    averages = {group: float(group_average_loads.get(group, 0.0)) for group in group_sizes}
    bags_per_group: dict[int, list[list[Job]]] = {group: [] for group in group_sizes}
    area_per_group = {group: 0.0 for group in group_sizes}
    for bag in bags:
        if len(bag) > total_capacity:
            raise AlgorithmError("group-bag-LPT: a bag has more jobs than all groups")
        sorted_jobs = _by_size_then_id(bag)
        cursor = 0
        for group in sorted(group_sizes, key=lambda group: (averages[group], group)):
            if cursor >= len(sorted_jobs):
                break
            take = min(group_sizes[group], len(sorted_jobs) - cursor)
            chunk = sorted_jobs[cursor : cursor + take]
            cursor += take
            bags_per_group[group].append(list(chunk))
            chunk_area = sum(job.size for job in chunk)
            area_per_group[group] += chunk_area
            averages[group] += chunk_area / group_sizes[group]
    return bags_per_group, area_per_group


def reference_place_non_priority_bags(
    instance: Instance,
    job_classes: JobClasses,
    table: JobTable,
    priority: frozenset[int],
    groups: dict[int, list[int]],
    grouping_height: list[float],
    occupancy: Occupancy,
) -> int:
    """Section C of small placement walked job by job over ``Job`` objects:
    the oracle for :func:`repro.eptas.small_jobs.place_non_priority_bags`."""
    small_count: dict[int, int] = {}
    for small in table.small:
        small_count[small.bag] = small_count.get(small.bag, 0) + small.count
    non_priority_bags: list[list[Job]] = []
    for bag, members in instance.bags().items():
        count = small_count.get(bag, 0)
        if not count or bag in priority:
            continue
        if count == len(members):
            non_priority_bags.append(list(members))
        else:
            non_priority_bags.append([job for job in members if job.id in job_classes.small])
    non_priority_bags.sort(key=lambda jobs: -sum(job.size for job in jobs))
    if not non_priority_bags:
        return 0
    group_sizes = {group: len(machines) for group, machines in groups.items()}
    group_avg = {
        group: sum(grouping_height[m] for m in machines) / len(machines)
        for group, machines in groups.items()
    }
    bags_per_group, _ = reference_group_bag_lpt(group_sizes, group_avg, non_priority_bags)
    placed = 0
    for group, bag_chunks in bags_per_group.items():
        if not any(bag_chunks):
            continue
        machines = groups[group]
        machine_of, _ = reference_bag_lpt(
            machines, {machine: grouping_height[machine] for machine in machines}, bag_chunks
        )
        for chunk in bag_chunks:
            for job in chunk:
                machine = machine_of[job.id]
                if job.bag in occupancy.bags[machine]:
                    machine = occupancy.least_loaded(job.bag)
                    if machine is None:
                        raise AlgorithmError(f"no conflict-free machine for small job {job.id}")
                occupancy.assign(job, machine)
            placed += len(chunk)
    return placed


def reference_group_jobs(
    instance: Instance, job_classes: JobClasses, bag_classes: BagClasses
) -> JobTable:
    """The guess's grouping walked over ``instance.jobs``: the oracle for
    :func:`repro.eptas.patterns.group_jobs`."""
    priority: dict[tuple[int, float], list[int]] = {}
    wildcard: dict[float, dict[int, list[int]]] = {}
    small: dict[tuple[int, float], list[int]] = {}
    for job in instance.jobs:
        size = size_key(job.size)
        if job.id in job_classes.small:
            small.setdefault((job.bag, size), []).append(job.id)
        elif job.bag in bag_classes.priority:
            priority.setdefault((job.bag, size), []).append(job.id)
        else:
            wildcard.setdefault(size, {}).setdefault(job.bag, []).append(job.id)
    return JobTable(
        priority={key: tuple(sorted(ids)) for key, ids in priority.items()},
        wildcard={
            size: {bag: tuple(sorted(ids)) for bag, ids in per_bag.items()}
            for size, per_bag in wildcard.items()
        },
        small=tuple(
            SmallClass(bag=bag, size=size, job_ids=tuple(sorted(ids)))
            for (bag, size), ids in sorted(small.items())
        ),
    )


def reference_resized(instance: Instance, sizes: np.ndarray, *, name: str) -> Instance:
    """``instance`` with the job in row ``r`` resized to ``sizes[r]``, every
    job copied up front: the eager copy that ``Instance._resized`` replaced."""
    jobs = tuple(map(Job._resized, instance.jobs, sizes.tolist()))
    return Instance(jobs, instance.num_machines, name=name, validate=False)
