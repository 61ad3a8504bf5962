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
from typing import Any, Iterable, Mapping, Sequence

import numpy as np
from hypothesis import strategies as st

from repro.core import Instance, InvalidInstanceError, Job, Occupancy, Schedule
from repro.milp import LinearModel, Sense

__all__ = [
    "assert_feasible",
    "assert_same_model",
    "build_model",
    "drawn_instances",
    "make_instance",
    "make_jobs",
    "reference_greedy_assign",
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
