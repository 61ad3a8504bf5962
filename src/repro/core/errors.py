"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by the :mod:`repro` package."""


class InvalidInstanceError(ReproError):
    """Raised when an :class:`~repro.core.instance.Instance` is malformed.

    Examples: a job with non-positive processing time, a bag with more jobs
    than machines (which makes the bag-constraint unsatisfiable), zero
    machines, or duplicate job identifiers.
    """


class InvalidScheduleError(ReproError):
    """Raised when a :class:`~repro.core.schedule.Schedule` is infeasible.

    A schedule is infeasible when a job is unassigned, assigned to a
    non-existent machine, assigned more than once, or when two jobs of the
    same bag share a machine (a *conflict* in the paper's terminology).
    """


class InfeasibleModelError(ReproError):
    """Raised when an LP/MILP model has no feasible solution.

    Only :func:`repro.exact.exact_milp_schedule` raises it: when its
    assignment MILP ends without a point, or the point leaves a job
    unassigned.  The EPTAS driver does not use it; it reads the status of
    each configuration MILP instead.
    """


class SolverLimitError(ReproError):
    """Raised when a solver exceeds a configured resource limit.

    Used by the pattern enumerator (``max_patterns``), the branch-and-bound
    solver (``max_nodes``), and the exact solvers (``time_limit``).  The
    message always states which limit was exceeded and the configured value
    so that callers can decide whether to retry with a larger budget or to
    fall back to a heuristic.
    """


class AlgorithmError(ReproError):
    """Raised when an internal invariant of an algorithm is violated.

    This indicates a bug (or an input outside the documented preconditions),
    e.g. the Lemma-7 swap repair failing to find a swap partner even though
    the paper guarantees one exists.
    """
