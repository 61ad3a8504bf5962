"""Job model for machine scheduling with bag-constraints.

A *job* is the atomic unit of work.  Each job has a processing time (the
paper calls it height or ``p_j``) and belongs to exactly one *bag*.  A
feasible schedule never places two jobs of the same bag on one machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Job"]


@dataclass(frozen=True, slots=True)
class Job:
    """A single job of a bag-constrained scheduling instance.

    Attributes
    ----------
    id:
        Unique non-negative integer identifier within an instance.  The
        library never renumbers jobs: transformed instances (Section 2.2 of
        the paper) allocate fresh identifiers for filler jobs but keep the
        original identifiers for original jobs so that solutions can be
        mapped back.
    size:
        Processing time ``p_j``: a finite number, strictly positive for
        original jobs; *dummy* jobs of size ``0.0`` are permitted because
        the bag-LPT algorithm of Section 4 pads bags with zero-height dummy
        jobs.  A negative, infinite or NaN size raises ``ValueError``.
    bag:
        Index of the bag this job belongs to (``0``-based).  Bags partition
        the job set; the constraint is "at most one job of each bag per
        machine".
    meta:
        Free-form metadata.  The instance transformation records the
        provenance of filler jobs (``{"filler_for": original_job_id}``) and
        the instance generators tag jobs with their role, service replica or
        planted machine.  The mapping is not hashed and does not participate
        in equality.
    """

    id: int
    size: float
    bag: int
    meta: Mapping[str, Any] = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"job id must be non-negative, got {self.id}")
        if self.size < 0:
            raise ValueError(f"job size must be non-negative, got {self.size}")
        if not math.isfinite(self.size):
            raise ValueError(f"job size must be finite, got {self.size}")
        if self.bag < 0:
            raise ValueError(f"bag index must be non-negative, got {self.bag}")

    def is_filler(self) -> bool:
        """Return ``True`` if this job was created as a filler job.

        Filler jobs are introduced by the instance transformation of
        Section 2.2: every large or medium job of a non-priority bag is
        replaced inside its original bag by a small copy of height
        ``p_max`` (the largest small-job size of the bag).
        """
        return "filler_for" in self.meta

    def with_size(self, size: float) -> "Job":
        """Return a copy of this job with a different processing time.

        Used by :meth:`~repro.core.instance.Instance.scaled`.  Identity, bag
        membership and metadata are kept.
        """
        return Job(id=self.id, size=size, bag=self.bag, meta=dict(self.meta))

    def _resized(self, size: float) -> "Job":
        """:meth:`with_size` without re-validation, for the rounding step.

        ``size`` must already be a finite non-negative float (a rounded size
        is); the copy still gets its own ``meta`` dict.
        """
        job = _new_job(Job)
        _set_id(job, self.id)
        _set_size(job, size)
        _set_bag(job, self.bag)
        _set_meta(job, dict(self.meta))
        return job

    def with_bag(self, bag: int) -> "Job":
        """Return a copy of this job that belongs to a different bag."""
        return Job(id=self.id, size=self.size, bag=bag, meta=dict(self.meta))

    def to_dict(self) -> dict[str, Any]:
        """Serialize the job to a JSON-compatible dictionary."""
        data: dict[str, Any] = {"id": self.id, "size": self.size, "bag": self.bag}
        if self.meta:
            data["meta"] = dict(self.meta)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Job":
        """Deserialize a job from :meth:`to_dict` output."""
        return cls(
            id=int(data["id"]),
            size=float(data["size"]),
            bag=int(data["bag"]),
            meta=dict(data.get("meta", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = " filler" if self.is_filler() else ""
        return f"Job(id={self.id}, size={self.size:.6g}, bag={self.bag}{tag})"


# Slot setters that bypass the frozen ``__setattr__``, for ``Job._resized``.
_new_job = object.__new__
_set_id, _set_size, _set_bag, _set_meta = (
    Job.__dict__[name].__set__ for name in ("id", "size", "bag", "meta")
)
