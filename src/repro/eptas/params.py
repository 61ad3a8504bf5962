"""EPTAS parameters and the derived constants of the paper.

The accuracy parameter ``eps`` drives every constant of the algorithm:

* ``T = 1 + 2*eps + eps**2`` — the makespan budget of the modified instance
  (Section 2.2): rounding costs a factor ``1 + eps`` and the transformation
  another, so the guessed optimum ``1`` becomes at most ``(1 + eps)**2 = T``.
* ``k`` — the medium-job window exponent of Lemma 1 (instance dependent).
* ``q = floor(T / eps**(k+1))`` — the maximum number of medium-or-large jobs
  a machine can hold within budget ``T`` (every such job has size at least
  ``eps**(k+1)``).
* ``d`` — the number of distinct large job sizes after geometric rounding
  (at most ``O(log_{1+eps}(1/eps**k))``; the instance-derived value is used
  whenever an instance is at hand).
* ``b' = (d*q + 1) * q`` — Definition 2: per large size, the first ``b'``
  bags in the size-restricted ordering are *priority* bags.

``ConstantsMode`` selects between the paper's formulas (``theory``) and a
capped *practical* mode: the theory values of ``b'`` and the MILP pattern
budget grow astronomically for realistic ``eps`` (this is exactly the point
of experiment E7), so the practical mode clamps ``b'`` at a configurable cap.
Clamping only moves bags from the priority group to the non-priority group;
all feasibility-repair machinery still runs, and the final schedule is always
validated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Any

from ..solver.registry import BackendSpec

__all__ = [
    "ConstantsMode",
    "EptasConfig",
    "DerivedConstants",
    "normalise_eps",
    "derive_constants",
    "theory_constants_report",
]


class ConstantsMode(enum.Enum):
    """Which constants the EPTAS uses for the priority-bag cut-off."""

    THEORY = "theory"
    PRACTICAL = "practical"


def normalise_eps(eps: float) -> float:
    """Clamp ``eps`` so that ``1/eps`` is a positive integer (paper Section 2).

    The paper assumes ``1/eps`` integral without loss of generality; we round
    ``1/eps`` *up* so the returned value never exceeds the requested one
    (the guarantee only improves).
    """
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return 1.0 / math.ceil(1.0 / eps - 1e-12)


@dataclass(frozen=True, slots=True)
class EptasConfig:
    """User-facing configuration of the EPTAS driver.

    Attributes
    ----------
    eps:
        Target accuracy; the returned makespan is at most
        ``(1 + O(eps)) * OPT`` (the constant inside the O is measured by
        experiment E2).
    mode:
        ``ConstantsMode.PRACTICAL`` (default) caps the priority-bag constant
        ``b'`` at ``practical_priority_cap``; ``ConstantsMode.THEORY`` uses
        the paper's formula ``b' = (d*q + 1) * q``.
    practical_priority_cap:
        Cap on ``b'`` per large size in practical mode.
    max_patterns:
        Hard limit on the number of enumerated machine configurations; the
        driver raises :class:`~repro.core.errors.SolverLimitError` beyond it.
    milp_backend / milp_time_limit:
        Passed to the :class:`repro.solver.SolverService`.  ``milp_backend``
        accepts a backend name or a :class:`repro.solver.BackendSpec` and is
        validated *at construction*, so an unknown backend or an option it
        does not read fails immediately instead of deep inside the first
        solve after transformation work has already been spent.
    max_search_iterations:
        Cap on the dual-approximation binary search length; the search also
        stops once its bracket is narrower than a factor ``1 + eps / 8``.
    """

    eps: float = 0.5
    mode: ConstantsMode = ConstantsMode.PRACTICAL
    practical_priority_cap: int = 3
    max_patterns: int = 50_000
    milp_backend: str | BackendSpec = "scipy"
    milp_time_limit: float | None = 60.0
    max_search_iterations: int = 40

    def __post_init__(self) -> None:
        # Fail fast: coerce + validate the backend spec now, not inside the
        # first solve (the dataclass is frozen, hence object.__setattr__).
        object.__setattr__(self, "milp_backend", BackendSpec.coerce(self.milp_backend))

    @property
    def backend_spec(self) -> BackendSpec:
        """The validated backend spec (``milp_backend`` after coercion)."""
        assert isinstance(self.milp_backend, BackendSpec)
        return self.milp_backend

    def normalised(self) -> "EptasConfig":
        """Return a copy with ``eps`` normalised so ``1/eps`` is integral."""
        return replace(self, eps=normalise_eps(self.eps))

    def to_dict(self) -> dict[str, Any]:
        return {
            "eps": self.eps,
            "mode": self.mode.value,
            "practical_priority_cap": self.practical_priority_cap,
            "max_patterns": self.max_patterns,
            "milp_backend": self.backend_spec.to_dict(),
            "milp_time_limit": self.milp_time_limit,
            "max_search_iterations": self.max_search_iterations,
        }


@dataclass(frozen=True, slots=True)
class DerivedConstants:
    """The paper's derived constants for one (eps, k, d) combination."""

    eps: float
    k: int
    budget: float  # T = 1 + 2 eps + eps^2
    q: int  # max medium-or-large jobs per machine within budget
    num_large_sizes: int  # d
    num_medium_sizes: int  # d_m
    priority_bags_per_size: int  # b' (after any practical cap)
    theory_priority_bags_per_size: int  # the uncapped (d q + 1) q
    small_integral_threshold: float  # eps^{2k+11}: smaller y vars stay fractional
    large_threshold: float  # eps^k
    medium_threshold: float  # eps^{k+1}
    large_bag_threshold: float  # eps * m jobs (filled in per instance, 0 if unknown)

    def to_dict(self) -> dict[str, Any]:
        return {
            "eps": self.eps,
            "k": self.k,
            "budget": self.budget,
            "q": self.q,
            "num_large_sizes": self.num_large_sizes,
            "num_medium_sizes": self.num_medium_sizes,
            "priority_bags_per_size": self.priority_bags_per_size,
            "theory_priority_bags_per_size": self.theory_priority_bags_per_size,
            "small_integral_threshold": self.small_integral_threshold,
            "large_threshold": self.large_threshold,
            "medium_threshold": self.medium_threshold,
            "large_bag_threshold": self.large_bag_threshold,
        }


def _count_geometric_sizes(eps: float, lower: float, upper: float) -> int:
    """Number of powers of ``1 + eps`` in the half-open interval ``[lower, upper]``.

    Used for the theory-mode estimate of ``d`` (large sizes) and ``d_m``
    (medium sizes) when no instance is given.
    """
    if lower <= 0 or upper < lower:
        return 0
    return int(math.floor(math.log(upper / lower, 1.0 + eps))) + 1


def derive_constants(
    eps: float,
    k: int,
    *,
    num_large_sizes: int | None = None,
    num_medium_sizes: int | None = None,
    mode: ConstantsMode = ConstantsMode.PRACTICAL,
    practical_priority_cap: int = 3,
    num_machines: int | None = None,
) -> DerivedConstants:
    """Compute the paper's derived constants.

    ``num_large_sizes`` / ``num_medium_sizes`` default to the worst-case
    geometric estimates; pass the instance-derived counts when available (the
    priority-bag constant then matches the instance the MILP actually sees).
    """
    eps = normalise_eps(eps)
    if k < 1:
        raise ValueError(f"the Lemma-1 parameter k must be >= 1, got {k}")
    budget = 1.0 + 2.0 * eps + eps * eps
    large_threshold = eps**k
    medium_threshold = eps ** (k + 1)
    q = max(1, int(math.floor(budget / medium_threshold + 1e-9)))
    d = (
        num_large_sizes
        if num_large_sizes is not None
        else _count_geometric_sizes(eps, large_threshold, budget)
    )
    d_m = (
        num_medium_sizes
        if num_medium_sizes is not None
        else _count_geometric_sizes(eps, medium_threshold, large_threshold)
    )
    theory_bprime = (d * q + 1) * q
    if mode is ConstantsMode.THEORY:
        bprime = theory_bprime
    else:
        bprime = min(theory_bprime, max(1, practical_priority_cap))
    return DerivedConstants(
        eps=eps,
        k=k,
        budget=budget,
        q=q,
        num_large_sizes=d,
        num_medium_sizes=d_m,
        priority_bags_per_size=bprime,
        theory_priority_bags_per_size=theory_bprime,
        small_integral_threshold=eps ** (2 * k + 11),
        large_threshold=large_threshold,
        medium_threshold=medium_threshold,
        large_bag_threshold=(eps * num_machines) if num_machines else 0.0,
    )


def theory_constants_report(eps: float) -> dict[str, Any]:
    """Worst-case sizes of the MILP as functions of ``eps`` alone (Lemma 6).

    Reproduces the quantities the proof of Lemma 6 tracks: the number of
    priority bags ``|A|``, the number of pattern entry types, the pattern
    count bound ``(d_m * (|A| + 1))**q`` and the resulting bound on the
    number of integral variables.  Returned as plain floats (they overflow
    any practical budget very quickly — that is the point of experiment E7).
    """
    eps = normalise_eps(eps)
    # Worst case k = 1/eps^2 maximises the constants; report k = 1 and the
    # worst case so the growth is visible on both ends.
    report: dict[str, Any] = {"eps": eps}
    for label, k in (("k=1", 1), ("k=worst", max(1, int(round(1.0 / eps**2))))):
        constants = derive_constants(eps, k, mode=ConstantsMode.THEORY)
        num_priority = constants.num_large_sizes * constants.theory_priority_bags_per_size
        entry_types = constants.num_medium_sizes * (num_priority + 1)
        log_patterns = constants.q * math.log10(max(entry_types, 1) + 1)
        report[label] = {
            "q": constants.q,
            "d": constants.num_large_sizes,
            "b_prime": constants.theory_priority_bags_per_size,
            "priority_bags": num_priority,
            "pattern_entry_types": entry_types,
            "log10_pattern_bound": log_patterns,
        }
    return report
