"""A small model-builder for linear and mixed-integer linear programs.

The configuration MILP of Section 3, the Das–Wiese baseline, the exact
reference solver and the LP lower bound all assemble sparse linear models
with :class:`LinearModel` and compile them to the arrays the solver backends
expect (:mod:`repro.milp.scipy_backend` and
:mod:`repro.milp.branch_and_bound`).  Outside the tests a model reaches
them only through :meth:`repro.solver.SolverService.solve`.

There is one way in, by index: columns come in blocks
(:meth:`LinearModel.add_columns`) and rows come in blocks of one sense as
COO index and value arrays (:meth:`LinearModel.add_constraints`).
:meth:`LinearModel.compile` turns the row blocks into one
:class:`scipy.sparse.csr_matrix` per sense group, once, right before
solving.  A solution is the point ``x``, one value per column in column
order.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Container, Sequence

import numpy as np
from scipy import sparse

__all__ = [
    "Sense",
    "LinearModel",
    "CompiledModel",
    "MilpSolution",
    "SolutionStatus",
]


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


class SolutionStatus(enum.Enum):
    """Status reported by the solver backends."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    LIMIT = "limit"


@dataclass(frozen=True, slots=True)
class CompiledModel:
    """Dense-index view of a :class:`LinearModel`, ready for a backend.

    ``a_ub x <= b_ub`` and ``a_eq x == b_eq``; ``integrality`` is a 0/1
    vector in scipy's convention.
    """

    variable_names: tuple[str, ...]
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray

    @property
    def num_variables(self) -> int:
        return len(self.variable_names)

    @property
    def num_integer_variables(self) -> int:
        return int(self.integrality.sum())

    @property
    def num_constraints(self) -> int:
        return self.a_ub.shape[0] + self.a_eq.shape[0]


@dataclass(slots=True)
class MilpSolution:
    """Solution of a (MI)LP model.

    ``x`` holds the point, one value per column in the model's column order,
    and is empty when the solve found none.
    """

    status: SolutionStatus
    objective: float
    x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    diagnostics: dict[str, Any] = field(default_factory=dict)

    @property
    def is_feasible(self) -> bool:
        return self.status in (SolutionStatus.OPTIMAL, SolutionStatus.FEASIBLE)


def _repeated(names: Sequence[str], existing: Container[str]) -> list[str]:
    """The names that repeat within ``names`` or are already in ``existing``."""
    counts = Counter(names)
    return sorted(n for n, count in counts.items() if count > 1 or n in existing)


def _per_column(label: str, given: Any, count: int, dtype: type) -> list[Any]:
    """``given`` once per column: a scalar repeats, an array must have ``count``."""
    array = np.asarray(given, dtype=dtype)
    if array.ndim == 0:
        return [array.item()] * count
    if array.shape != (count,):
        raise ValueError(f"{label} has shape {array.shape}; expected ({count},)")
    return array.tolist()


@dataclass(frozen=True, slots=True)
class _RowBlock:
    """Constraints added in bulk: one sense, COO entries with zeros dropped.

    ``row`` indexes ``names``/``rhs``; ``col`` indexes the model's columns.
    """

    names: tuple[str, ...]
    sense: Sense
    rhs: np.ndarray
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray


class LinearModel:
    """Builder for mixed-integer linear programs, by column and row index.

    The objective sense is always *minimise*; negate coefficients to
    maximise.  Column names and row names must be unique.  Columns and rows
    keep the order they were added in.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        # One entry per column, in insertion order.
        self._names: list[str] = []
        self._column_names: set[str] = set()
        self._lower: list[float] = []
        self._upper: list[float] = []  # inf when unbounded
        self._integer: list[bool] = []
        self._objective: list[float] = []
        # Row blocks in insertion order.
        self._rows: list[_RowBlock] = []
        self._constraint_names: set[str] = set()

    def _claim(self, kind: str, names: list[str], taken: set[str]) -> None:
        """Add ``names`` to ``taken``; a repeated or taken name raises ``ValueError``."""
        fresh = set(names)
        if len(fresh) != len(names) or not fresh.isdisjoint(taken):
            raise ValueError(
                f"{kind} {_repeated(names, taken)!r} already exist in model {self.name!r}"
            )
        taken |= fresh

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def add_columns(
        self,
        names: Sequence[str],
        *,
        lower: float | np.ndarray = 0.0,
        upper: float | np.ndarray | None = None,
        integer: bool | np.ndarray = False,
        objective: float | np.ndarray = 0.0,
    ) -> range:
        """Add one column per name; returns their column indices.

        Each attribute is one value for every column or an array with one
        entry per name.  A name that repeats, or that the model already has,
        raises ``ValueError``, and so does an array of another length.
        """
        names = list(names)
        count = len(names)
        lowers = _per_column("lower", lower, count, float)
        uppers = _per_column("upper", np.inf if upper is None else upper, count, float)
        integers = _per_column("integer", integer, count, bool)
        objectives = _per_column("objective", objective, count, float)
        self._claim("variables", names, self._column_names)
        first = len(self._names)
        self._names.extend(names)
        self._lower.extend(lowers)
        self._upper.extend(uppers)
        self._integer.extend(integers)
        self._objective.extend(objectives)
        return range(first, first + count)

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def num_integer_variables(self) -> int:
        return sum(self._integer)

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def add_constraints(
        self,
        names: Sequence[str],
        sense: Sense,
        rhs: Sequence[float] | np.ndarray,
        *,
        row: Sequence[int] | np.ndarray,
        col: Sequence[int] | np.ndarray,
        value: Sequence[float] | np.ndarray,
    ) -> None:
        """Add one constraint per name, all of one sense, from COO entries.

        Entry ``i`` puts ``value[i]`` at column ``col[i]`` (a column index,
        in the order the columns were added) of the block's row ``row[i]``.
        Zero coefficients are dropped.  A repeated or existing name raises
        ``ValueError``, and so do arrays of the wrong length; an index out of
        range raises ``IndexError``.  A (row, column) pair given twice makes
        :meth:`compile` raise ``ValueError``.
        """
        names = list(names)
        rhs_array = np.asarray(rhs, dtype=float)
        rows = np.asarray(row, dtype=np.int64)
        cols = np.asarray(col, dtype=np.int64)
        values = np.asarray(value, dtype=float)
        if rhs_array.shape != (len(names),):
            raise ValueError(
                f"rhs has shape {rhs_array.shape}; expected ({len(names)},)"
            )
        if rows.ndim != 1 or not rows.shape == cols.shape == values.shape:
            raise ValueError(
                f"row, col and value must be 1-d arrays of one length; got "
                f"shapes {rows.shape}, {cols.shape} and {values.shape}"
            )
        for label, indices, bound in (
            ("row", rows, len(names)),
            ("col", cols, self.num_variables),
        ):
            if indices.size and (indices.min() < 0 or indices.max() >= bound):
                raise IndexError(f"{label} index out of range [0, {bound})")
        self._claim("constraints", names, self._constraint_names)
        keep = values != 0.0
        self._rows.append(
            _RowBlock(
                names=tuple(names),
                sense=sense,
                rhs=rhs_array,
                row=rows[keep],
                col=cols[keep],
                value=values[keep],
            )
        )

    @property
    def num_constraints(self) -> int:
        return len(self._constraint_names)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _stack(self, blocks: list[_RowBlock]) -> tuple[sparse.csr_matrix, np.ndarray]:
        """One CSR matrix and rhs vector for ``blocks``, rows in order, GE negated."""
        sizes = [len(block.names) for block in blocks]
        starts = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        row = np.concatenate(
            [np.zeros(0, np.int64)] + [b.row + s for b, s in zip(blocks, starts)]
        )
        col = np.concatenate([np.zeros(0, np.int64)] + [b.col for b in blocks])
        value = np.concatenate([np.zeros(0)] + [b.value for b in blocks])
        rhs = np.concatenate([np.zeros(0)] + [b.rhs for b in blocks])
        # GE constraints are stored negated as LE.
        sign = np.repeat([-1.0 if b.sense is Sense.GE else 1.0 for b in blocks], sizes)
        matrix = sparse.coo_matrix(
            (sign[row] * value, (row, col)), shape=(len(rhs), self.num_variables)
        ).tocsr()
        if matrix.nnz != value.size:
            # The conversion summed repeated entries.
            raise ValueError(f"model {self.name!r} gives a (row, column) pair twice")
        return matrix, sign * rhs

    def compile(self) -> CompiledModel:
        """Compile the model into index-based sparse matrices.

        LE and GE rows go to ``a_ub`` and EQ rows to ``a_eq``, each in the
        order they were added.
        """
        a_ub, b_ub = self._stack([r for r in self._rows if r.sense is not Sense.EQ])
        a_eq, b_eq = self._stack([r for r in self._rows if r.sense is Sense.EQ])
        return CompiledModel(
            variable_names=tuple(self._names),
            objective=np.array(self._objective, dtype=float),
            lower=np.array(self._lower, dtype=float),
            upper=np.array(self._upper, dtype=float),
            integrality=np.array(self._integer, dtype=np.int8),
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
        )

    # ------------------------------------------------------------------
    # Introspection / reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, int]:
        """Model size summary used by the Lemma-6 size experiment (E7)."""
        return {
            "variables": self.num_variables,
            "integer_variables": self.num_integer_variables,
            "continuous_variables": self.num_variables - self.num_integer_variables,
            "constraints": self.num_constraints,
        }

    def check_solution(
        self, x: Sequence[float] | np.ndarray, *, tol: float = 1e-6
    ) -> list[str]:
        """Describe each bound, integrality and row the point ``x`` violates.

        ``x`` holds one value per column, in column order; another length
        raises ``ValueError``.
        """
        point = np.asarray(x, dtype=float)
        if point.shape != (self.num_variables,):
            raise ValueError(f"x has shape {point.shape}; expected ({self.num_variables},)")
        violations: list[str] = []
        for name, value, lower, upper, integer in zip(
            self._names, point.tolist(), self._lower, self._upper, self._integer
        ):
            if value < lower - tol:
                violations.append(f"{name} = {value} below lower bound {lower}")
            if value > upper + tol:
                violations.append(f"{name} = {value} above upper bound {upper}")
            if integer and abs(value - round(value)) > tol:
                violations.append(f"{name} = {value} not integral")
        for block in self._rows:
            lhs = np.bincount(
                block.row, weights=block.value * point[block.col], minlength=len(block.names)
            )
            for name, left, rhs in zip(block.names, lhs.tolist(), block.rhs.tolist()):
                if block.sense is Sense.LE and left > rhs + tol:
                    violations.append(f"{name}: {left} > {rhs}")
                elif block.sense is Sense.GE and left < rhs - tol:
                    violations.append(f"{name}: {left} < {rhs}")
                elif block.sense is Sense.EQ and abs(left - rhs) > tol:
                    violations.append(f"{name}: {left} != {rhs}")
        return violations
