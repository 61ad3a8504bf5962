"""Instance model for machine scheduling with bag-constraints.

An :class:`Instance` bundles the job set, the bag partition (implicit in the
jobs' ``bag`` attributes) and the number of identical machines.  It offers
vectorised accessors (NumPy arrays of sizes and bags), bag-level views,
summary statistics, and JSON serialization.  Instances are immutable; all
algorithms that "modify the instance" (rounding, the Section-2.2
transformation) return new instances.

Per-job reads of whole schedules go through one job table that an instance
builds once, when it is constructed: a dict from job id to *row* (the job's
position in construction order) beside the ``row_ids``, ``sizes`` and
``job_bags`` arrays.  :meth:`Instance.rows_of` maps many ids to rows in one
C-level pass, so a schedule reads every size or bag with one fancy index
instead of one :meth:`Instance.job` call per job.

A copy with new sizes (:meth:`Instance._resized`, the rounding step of every
EPTAS guess) shares that table and gets only its size array.  Its
:class:`~repro.core.job.Job` tuple and bag map are built the first time
something reads them, so a guess whose stages read only the table copies no
job.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, KeysView, Mapping, Sequence, SupportsIndex

import numpy as np

from .errors import InvalidInstanceError
from .job import Job

__all__ = ["Instance", "InstanceStats"]


@dataclass(frozen=True, slots=True)
class InstanceStats:
    """Summary statistics of an instance, used in reports and experiments."""

    num_jobs: int
    num_bags: int
    num_machines: int
    total_work: float
    max_job_size: float
    min_job_size: float
    mean_job_size: float
    max_bag_size: int
    mean_bag_size: float
    area_lower_bound: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "num_jobs": self.num_jobs,
            "num_bags": self.num_bags,
            "num_machines": self.num_machines,
            "total_work": self.total_work,
            "max_job_size": self.max_job_size,
            "min_job_size": self.min_job_size,
            "mean_job_size": self.mean_job_size,
            "max_bag_size": self.max_bag_size,
            "mean_bag_size": self.mean_bag_size,
            "area_lower_bound": self.area_lower_bound,
        }


def _by_bag(jobs: tuple[Job, ...]) -> dict[int, tuple[Job, ...]]:
    """``bag index -> its jobs in order``, bags in ascending order."""
    bags: dict[int, list[Job]] = {}
    for job in jobs:
        bags.setdefault(job.bag, []).append(job)
    return {bag: tuple(members) for bag, members in sorted(bags.items())}


class Instance:
    """An immutable instance of machine scheduling with bag-constraints.

    Parameters
    ----------
    jobs:
        The jobs of the instance.  Job identifiers must be unique.  Bag
        indices may be sparse (e.g. only bags 0 and 7 used); the instance
        exposes both the raw indices and a densely numbered view.
    num_machines:
        Number of identical machines ``m`` (must be >= 1).
    name:
        Optional human-readable name used in experiment reports.
    validate:
        If ``True`` (default), run structural validation on construction.
        Note that validation checks *satisfiability* of the bag constraint
        (no bag may contain more jobs than machines) because such instances
        admit no feasible schedule at all.

    The job table (``id -> row``, and each row's id, size and bag as arrays)
    is built here, once; job ids and bag indices must fit in int64.  A copy
    made by :meth:`_resized` shares it and builds its jobs on demand.
    """

    # ``_source`` is set only on a copy whose jobs are not built yet.
    __slots__ = (
        "_jobs", "_num_machines", "_name", "_rows", "_id_by_row", "_ids", "_bags",
        "_bag_indices", "_sizes", "_job_bags", "_source",
    )

    def __init__(
        self,
        jobs: Iterable[Job],
        num_machines: int,
        *,
        name: str = "instance",
        validate: bool = True,
    ) -> None:
        job_tuple = tuple(jobs)
        self._jobs: tuple[Job, ...] = job_tuple
        self._num_machines = int(num_machines)
        self._name = str(name)
        ids = tuple([job.id for job in job_tuple])
        # A repeated id (only possible without validation) maps to its last row.
        self._rows: dict[int, int] = dict(zip(ids, range(len(ids))))
        self._id_by_row = ids
        self._ids = np.array(ids, dtype=np.int64)
        self._bags = _by_bag(job_tuple)
        self._bag_indices = tuple(self._bags)
        self._sizes = np.array([job.size for job in job_tuple], dtype=float)
        self._job_bags = np.array([job.bag for job in job_tuple], dtype=np.int64)
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`InvalidInstanceError` if the instance is malformed."""
        if self._num_machines < 1:
            raise InvalidInstanceError(
                f"number of machines must be >= 1, got {self._num_machines}"
            )
        if len(self._rows) != len(self._jobs):
            seen: set[int] = set()
            dupes = sorted(
                {job.id for job in self._jobs if job.id in seen or seen.add(job.id)}
            )
            raise InvalidInstanceError(f"duplicate job identifiers: {dupes}")
        for job in self._jobs:
            if job.size < 0:
                raise InvalidInstanceError(
                    f"job {job.id} has negative size {job.size}"
                )
            if not math.isfinite(job.size):
                raise InvalidInstanceError(
                    f"job {job.id} has non-finite size {job.size}"
                )
        for bag, members in self._bags.items():
            if len(members) > self._num_machines:
                raise InvalidInstanceError(
                    f"bag {bag} has {len(members)} jobs but only "
                    f"{self._num_machines} machines are available; "
                    "no feasible schedule exists"
                )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def jobs(self) -> tuple[Job, ...]:
        """All jobs in construction order."""
        return self._jobs

    @property
    def num_machines(self) -> int:
        """Number of identical machines ``m``."""
        return self._num_machines

    @property
    def name(self) -> str:
        """Human-readable instance name."""
        return self._name

    @property
    def num_jobs(self) -> int:
        """Number of jobs ``n``."""
        return len(self._sizes)

    @property
    def num_bags(self) -> int:
        """Number of non-empty bags ``b``."""
        return len(self._bag_indices)

    @property
    def bag_indices(self) -> tuple[int, ...]:
        """Sorted tuple of bag indices that actually contain jobs."""
        return self._bag_indices

    @property
    def row_ids(self) -> np.ndarray:
        """Vector of job ids in construction order (read-only view).

        Unlike :attr:`job_ids` it has one entry per row, also when an id
        repeats (possible only without validation).
        """
        view = self._ids.view()
        view.setflags(write=False)
        return view

    @property
    def job_id_by_row(self) -> tuple[int, ...]:
        """The ids of :attr:`row_ids` as the jobs' own ``int`` objects.

        A dict or set built from these finds the instance's id table's keys
        by identity; the ints of ``row_ids.tolist()`` are new objects, which
        every lookup must compare by value.
        """
        return self._id_by_row

    @property
    def sizes(self) -> np.ndarray:
        """Vector of job sizes in construction order (read-only view)."""
        view = self._sizes.view()
        view.setflags(write=False)
        return view

    @property
    def job_bags(self) -> np.ndarray:
        """Vector of job bag indices in construction order (read-only view)."""
        view = self._job_bags.view()
        view.setflags(write=False)
        return view

    @property
    def job_ids(self) -> KeysView[int]:
        """The job identifiers in construction order, as a read-only set-like view."""
        return self._rows.keys()

    @property
    def total_work(self) -> float:
        """Sum of all processing times."""
        return float(self._sizes.sum())

    @property
    def max_job_size(self) -> float:
        """Largest processing time (``0.0`` for an empty instance)."""
        return float(self._sizes.max()) if self._sizes.size else 0.0

    def job(self, job_id: int) -> Job:
        """Look up a job by identifier."""
        try:
            return self._jobs[self._rows[job_id]]
        except KeyError as exc:
            raise self._unknown(job_id) from exc

    def rows_of(self, job_ids: Iterable[int]) -> np.ndarray:
        """Row of every given job id, in order, as an int64 array.

        A row indexes :attr:`sizes` and :attr:`job_bags`.  An unknown id
        raises the ``KeyError`` that :meth:`job` raises for it.
        """
        try:
            return np.fromiter(map(self._rows.__getitem__, job_ids), dtype=np.int64)
        except KeyError as exc:
            raise self._unknown(exc.args[0]) from exc

    def _unknown(self, job_id: int) -> KeyError:
        return KeyError(f"no job with id {job_id} in instance {self._name}")

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._rows

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __len__(self) -> int:
        return len(self._sizes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Instance(name={self._name!r}, n={self.num_jobs}, "
            f"b={self.num_bags}, m={self._num_machines})"
        )

    # ------------------------------------------------------------------
    # Bag-level views
    # ------------------------------------------------------------------
    def bag(self, bag_index: int) -> tuple[Job, ...]:
        """All jobs of the given bag (empty tuple if the bag is unused)."""
        return self._bags.get(bag_index, ())

    def bags(self) -> Mapping[int, tuple[Job, ...]]:
        """Mapping ``bag index -> jobs of that bag`` (sorted by index)."""
        return dict(self._bags)

    def bag_sizes(self) -> dict[int, int]:
        """Mapping ``bag index -> number of jobs in that bag``."""
        return {bag: len(members) for bag, members in self._bags.items()}

    # ------------------------------------------------------------------
    # Derived constructions
    # ------------------------------------------------------------------
    def _resized(self, sizes: np.ndarray, *, name: str) -> "Instance":
        """A copy whose job in row ``r`` has size ``sizes[r]``, for rounding.

        The copy keeps every id, row and bag, so it shares this instance's
        id -> row dict, ids by row, id and bag arrays and bag indices, and
        ``sizes`` (not copied) becomes its size array.  It copies no job: its
        job tuple and bag map are built when first read (see
        :class:`_ResizedInstance`), with :meth:`Job._resized`, unchecked, so
        ``sizes`` must be finite and non-negative, as rounded sizes are.
        """
        copy = _ResizedInstance.__new__(_ResizedInstance)
        copy._num_machines = self._num_machines
        copy._name = name
        copy._rows = self._rows
        copy._id_by_row = self._id_by_row
        copy._ids = self._ids
        copy._bag_indices = self._bag_indices
        copy._sizes = sizes
        copy._job_bags = self._job_bags
        copy._source = self
        return copy

    def scaled(self, factor: float, *, name: str | None = None) -> "Instance":
        """Return a copy of the instance with every job size multiplied by ``factor``.

        With ``factor = 1 / guess``, rounding this copy with
        :func:`~repro.eptas.rounding.round_instance` gives, bit for bit, the
        sizes that :func:`~repro.eptas.rounding.scale_and_round` computes in
        one step.
        """
        if factor <= 0:
            raise ValueError(f"scaling factor must be positive, got {factor}")
        return Instance(
            (job.with_size(job.size * factor) for job in self._jobs),
            self._num_machines,
            name=name if name is not None else f"{self._name}*{factor:g}",
            validate=False,
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> InstanceStats:
        """Compute summary statistics for reports and sanity checks."""
        sizes = self._sizes
        bag_counts = [len(members) for members in self._bags.values()]
        total = float(sizes.sum()) if sizes.size else 0.0
        return InstanceStats(
            num_jobs=self.num_jobs,
            num_bags=self.num_bags,
            num_machines=self._num_machines,
            total_work=total,
            max_job_size=float(sizes.max()) if sizes.size else 0.0,
            min_job_size=float(sizes.min()) if sizes.size else 0.0,
            mean_job_size=float(sizes.mean()) if sizes.size else 0.0,
            max_bag_size=max(bag_counts) if bag_counts else 0,
            mean_bag_size=float(np.mean(bag_counts)) if bag_counts else 0.0,
            area_lower_bound=total / self._num_machines if self._num_machines else 0.0,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Serialize to a JSON-compatible dictionary."""
        return {
            "name": self._name,
            "num_machines": self._num_machines,
            "jobs": [job.to_dict() for job in self._jobs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, validate: bool = True) -> "Instance":
        """Deserialize from :meth:`to_dict` output."""
        return cls(
            (Job.from_dict(entry) for entry in data["jobs"]),
            int(data["num_machines"]),
            name=str(data.get("name", "instance")),
            validate=validate,
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str, *, validate: bool = True) -> "Instance":
        """Deserialize from a JSON string."""
        return cls.from_dict(json.loads(text), validate=validate)

    def save(self, path: str | Path) -> Path:
        """Write the instance to a JSON file and return the path."""
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: str | Path, *, validate: bool = True) -> "Instance":
        """Read an instance from a JSON file."""
        return cls.from_json(Path(path).read_text(), validate=validate)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_sizes(
        cls,
        sizes: Sequence[float],
        bags: Sequence[int],
        num_machines: int,
        *,
        name: str = "instance",
        validate: bool = True,
    ) -> "Instance":
        """Build an instance from parallel lists of sizes and bag indices.

        The ``i``-th job receives identifier ``i``.  This is the most
        convenient constructor for tests and examples::

            Instance.from_sizes([3, 2, 2, 1], bags=[0, 0, 1, 1], num_machines=2)
        """
        if len(sizes) != len(bags):
            raise InvalidInstanceError(
                f"sizes and bags must have equal length, got {len(sizes)} and {len(bags)}"
            )
        jobs = [
            Job(id=index, size=float(size), bag=int(bag))
            for index, (size, bag) in enumerate(zip(sizes, bags))
        ]
        return cls(jobs, num_machines, name=name, validate=validate)

    @classmethod
    def without_bags(
        cls,
        sizes: Sequence[float],
        num_machines: int,
        *,
        name: str = "instance",
    ) -> "Instance":
        """Build a classical makespan instance (every job in its own bag).

        Placing each job in a singleton bag makes the bag constraint vacuous,
        which recovers plain ``P || C_max``.  Useful for comparing against
        classical algorithms and for tests.
        """
        return cls.from_sizes(sizes, bags=list(range(len(sizes))), num_machines=num_machines, name=name)


class _ResizedInstance(Instance):
    """An :meth:`Instance._resized` copy, whose jobs are built on first read.

    It starts with the ``_jobs`` and ``_bags`` slots empty.  Reading an empty
    slot raises ``AttributeError``, so Python calls :meth:`__getattr__`,
    which builds both: the source's jobs in row order, each copied by
    :meth:`Job._resized` with this copy's size, which is the tuple an eager
    copy would hold.  Every accessor that reads jobs therefore works
    unchanged.  Then the copy releases its source and becomes a plain
    :class:`Instance` (same slots), because a class with ``__getattr__``
    reads every attribute more slowly, about 35 ns a read: instances made by
    the constructor never pay that, and a copy pays it only until its jobs
    exist.
    """

    __slots__ = ()

    def __getattr__(self, name: str) -> Any:
        if name not in ("_jobs", "_bags"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        jobs = tuple(map(Job._resized, self._source.jobs, self._sizes.tolist()))
        self._jobs = jobs
        self._bags = _by_bag(jobs)
        del self._source
        self.__class__ = Instance
        return jobs if name == "_jobs" else self._bags

    def __reduce_ex__(self, protocol: SupportsIndex) -> Any:
        # Build the jobs first, so that a copy or pickle is of the plain
        # Instance this copy then is.
        self.__getattr__("_jobs")
        return Instance.__reduce_ex__(self, protocol)
