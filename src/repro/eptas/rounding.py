"""Scaling and geometric rounding (Section 2 of the paper).

The EPTAS guesses the optimal makespan ``T_guess`` (binary search), scales
the instance so that the guess becomes ``1`` and rounds every job size *up*
to the next power of ``1 + eps``.  Rounding up means any schedule of the
rounded instance is also a schedule of the original one with the same or a
smaller makespan, and the optimum of the rounded instance is at most
``(1 + eps)`` times the original optimum.

A guess rounds every job at once (:func:`round_up_sizes`): numpy computes the
exponents, and the few sizes whose exponent lies near an integer, where
numpy's ``log`` and ``math.log`` could round to different sides, are redone
with ``math.log``.  Each power comes from Python's ``(1 + eps) ** k``, once
per distinct ``k``, so every rounded size is bit for bit the one
:func:`round_up_to_power` gives.

The rounded instance copies no job: it is its source's job table with the
rounded size array (:meth:`~repro.core.instance.Instance._resized`), and
builds its :class:`~repro.core.job.Job` objects only if a stage reads them.
A guess whose jobs are all small reads none.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.instance import Instance

__all__ = [
    "round_up_to_power",
    "round_up_sizes",
    "round_instance",
    "scale_and_round",
]

#: Exponents closer than this to an integer are recomputed with ``math.log``.
#: numpy's ``log`` and libm's differ by an ulp or so, far less than this.
_NEAR_INTEGER = 1e-6


def round_up_to_power(size: float, eps: float) -> float:
    """Round ``size`` up to the next power of ``1 + eps`` (sizes <= 0 stay 0).

    A small relative tolerance keeps sizes that already *are* powers of
    ``1 + eps`` unchanged instead of being pushed a full step up by floating
    point noise.
    """
    if size <= 0:
        return 0.0
    base = 1.0 + eps
    exponent = math.log(size, base)
    rounded_exponent = math.ceil(exponent - 1e-9)
    value = base**rounded_exponent
    # Guard against the value dipping below the original size due to
    # floating point error in the power computation.
    while value < size - 1e-15:
        rounded_exponent += 1
        value = base**rounded_exponent
    return value


def round_up_sizes(sizes: np.ndarray, eps: float) -> np.ndarray:
    """:func:`round_up_to_power` of every size, bit for bit, as one array.

    An infinite or NaN size raises what the scalar function raises for it.
    """
    base = 1.0 + eps
    rounded = np.zeros(len(sizes))
    positive = np.flatnonzero(~(sizes <= 0))
    values = sizes[positive]
    shifted = np.log(values) / math.log(base) - 1e-9
    # math.log(size, base) is log(size) / log(base) in libm; numpy's log may
    # differ in the last bit, which matters only next to an integer.
    with np.errstate(invalid="ignore"):  # inf - inf, for an infinite size
        near = np.flatnonzero(~(np.abs(shifted - np.rint(shifted)) >= _NEAR_INTEGER))
    shifted[near] = [math.log(size, base) - 1e-9 for size in values[near].tolist()]
    exponents, index = np.unique(np.ceil(shifted), return_inverse=True)
    powers = np.array([base ** int(exponent) for exponent in exponents.tolist()])
    result = powers[index]
    # The scalar function's upward steps, for a power that dips below its size.
    for position in np.flatnonzero(result < values - 1e-15).tolist():
        result[position] = round_up_to_power(float(values[position]), eps)
    rounded[positive] = result
    return rounded


def _round_scaled(instance: Instance, eps: float, scale: float, name: str) -> Instance:
    """Replace every size ``s`` with ``round_up_to_power(s * scale, eps)``.

    ``s * scale`` is the product :meth:`Instance.scaled` stores, so rounding
    a scaled copy gives the same sizes bit for bit.  Ids and bags do not
    change, so the rounded instance shares the source's job table
    (:meth:`Instance._resized`) and copies a :class:`~repro.core.job.Job`
    only when its jobs are first read; rounded sizes are finite and
    non-negative, so those copies skip validation.
    """
    sizes = round_up_sizes(instance.sizes * scale, eps)
    return instance._resized(sizes, name=name)


def round_instance(instance: Instance, eps: float) -> Instance:
    """Round every job size of an instance up to a power of ``1 + eps``."""
    return _round_scaled(instance, eps, 1.0, f"{instance.name}#rounded")


def scale_and_round(instance: Instance, eps: float, makespan_guess: float) -> Instance:
    """Scale so the guessed optimum becomes 1, then round sizes geometrically.

    Every size ``s`` becomes ``round_up_to_power(s * (1 / makespan_guess), eps)``
    and ids and bags stay, so an assignment transfers verbatim.  Raises
    ``ValueError`` for a non-positive guess: the binary search always works
    with strictly positive guesses (the lower bound of a non-empty instance
    is positive).
    """
    if makespan_guess <= 0:
        raise ValueError(f"makespan guess must be positive, got {makespan_guess}")
    return _round_scaled(instance, eps, 1.0 / makespan_guess, f"{instance.name}#scaled#rounded")
