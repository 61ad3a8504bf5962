"""A small model-builder for linear and mixed-integer linear programs.

The configuration MILP of Section 3, the Das–Wiese baseline, the exact
reference solver and the LP lower bound all need to assemble sparse linear
models with named variables.  :class:`LinearModel` collects variables and
constraints and compiles them to the arrays expected by the solver backends
(:mod:`repro.milp.scipy_backend` and :mod:`repro.milp.branch_and_bound`).
Outside the tests a model reaches them only through
:meth:`repro.solver.SolverService.solve`.

The builder keeps everything sparse.  A constraint added by name
(:meth:`LinearModel.add_constraint`) is stored as a
``{variable name: coefficient}`` dictionary; a block of constraints added in
bulk (:meth:`LinearModel.add_constraints`) as COO index and value arrays.
Columns come one at a time or in bulk too.  :meth:`LinearModel.compile`
turns both kinds into one :class:`scipy.sparse.csr_matrix` per sense group,
once, right before solving.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Container, Mapping, Sequence

import numpy as np
from scipy import sparse

from ..core.errors import InfeasibleModelError

__all__ = [
    "Sense",
    "VarType",
    "Variable",
    "Constraint",
    "LinearModel",
    "CompiledModel",
    "MilpSolution",
    "SolutionStatus",
    "SolveTelemetry",
]


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


class VarType(enum.Enum):
    """Variable integrality."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"


class SolutionStatus(enum.Enum):
    """Status reported by the solver backends."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    LIMIT = "limit"


@dataclass(frozen=True, slots=True)
class Variable:
    """A model variable with bounds and integrality."""

    name: str
    lower: float = 0.0
    upper: float | None = None
    vtype: VarType = VarType.CONTINUOUS
    objective: float = 0.0

    @property
    def is_integer(self) -> bool:
        return self.vtype is VarType.INTEGER


@dataclass(frozen=True, slots=True)
class Constraint:
    """A sparse linear constraint ``sum coeff*var  <sense>  rhs``."""

    name: str
    coefficients: Mapping[str, float]
    sense: Sense
    rhs: float


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
class SolveTelemetry:
    """Uniform per-solve telemetry attached by the solver service.

    Every solve that goes through :class:`repro.solver.SolverService`
    carries one of these: wall time, terminal status and the backend
    *fingerprint* (name + version + option digest, the cache identity of
    :func:`repro.solver.backend_fingerprint`).
    """

    backend: str
    fingerprint: str
    wall_time: float
    status: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "fingerprint": self.fingerprint,
            "wall_time": self.wall_time,
            "status": self.status,
        }


@dataclass(slots=True)
class MilpSolution:
    """Solution of a (MI)LP model.

    ``x`` holds the point, one value per column in the model's column order,
    and is empty when the solve found none; ``names`` are the columns' names.
    Readers that know their columns index ``x``; :attr:`values` and
    :meth:`value` are by-name views derived from it.
    """

    status: SolutionStatus
    objective: float
    x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    names: tuple[str, ...] = ()
    diagnostics: dict[str, Any] = field(default_factory=dict)
    telemetry: SolveTelemetry | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status in (SolutionStatus.OPTIMAL, SolutionStatus.FEASIBLE)

    @property
    def values(self) -> dict[str, float]:
        """Mapping ``name -> value``; empty without a point.  Built per call."""
        return dict(zip(self.names, self.x.tolist()))

    def value(self, name: str, default: float = 0.0) -> float:
        """One value by name (builds :attr:`values`: read that once for many)."""
        return self.values.get(name, default)

    def integral_values(self, *, tol: float = 1e-6) -> dict[str, int]:
        """Round values that are within ``tol`` of an integer; others raise."""
        rounded: dict[str, int] = {}
        for name, value in self.values.items():
            nearest = round(value)
            if abs(value - nearest) > tol:
                raise InfeasibleModelError(
                    f"variable {name} = {value} is not integral within tolerance {tol}"
                )
            rounded[name] = int(nearest)
        return rounded


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
    """Symbolic builder for mixed-integer linear programs.

    The objective sense is always *minimise*; negate coefficients to
    maximise.  Variable and constraint names must be unique.

    Variables and constraints are added one at a time by name
    (:meth:`add_variable`, :meth:`add_constraint`) or in bulk by index
    (:meth:`add_columns`, :meth:`add_constraints`).  Both kinds share the
    column order and the row order, in the order they were added, and
    :meth:`compile` treats them alike.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        # One entry per column, in insertion order.
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._lower: list[float] = []
        self._upper: list[float] = []  # inf when unbounded
        self._integer: list[bool] = []
        self._objective: list[float] = []
        # Rows in insertion order: single constraints and bulk blocks.
        self._rows: list[Constraint | _RowBlock] = []
        self._constraint_names: set[str] = set()
        self._num_constraints = 0

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def add_variable(
        self,
        name: str,
        *,
        lower: float = 0.0,
        upper: float | None = None,
        integer: bool = False,
        objective: float = 0.0,
    ) -> Variable:
        """Add a variable.  Re-adding an existing name raises ``ValueError``."""
        if name in self._index:
            raise ValueError(f"variable {name!r} already exists in model {self.name!r}")
        variable = Variable(
            name=name,
            lower=float(lower),
            upper=None if upper is None else float(upper),
            vtype=VarType.INTEGER if integer else VarType.CONTINUOUS,
            objective=float(objective),
        )
        self._index[name] = len(self._names)
        self._names.append(name)
        self._lower.append(variable.lower)
        self._upper.append(np.inf if variable.upper is None else variable.upper)
        self._integer.append(bool(integer))
        self._objective.append(variable.objective)
        return variable

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
        first = len(self._names)
        columns = range(first, first + len(names))
        index = dict(zip(names, columns))
        if len(index) != len(names) or not index.keys().isdisjoint(self._index):
            raise ValueError(
                f"variables {_repeated(names, self._index)!r} already exist in "
                f"model {self.name!r}"
            )
        count = len(names)
        lowers = _per_column("lower", lower, count, float)
        uppers = _per_column("upper", np.inf if upper is None else upper, count, float)
        integers = _per_column("integer", integer, count, bool)
        objectives = _per_column("objective", objective, count, float)
        self._index.update(index)
        self._names.extend(names)
        self._lower.extend(lowers)
        self._upper.extend(uppers)
        self._integer.extend(integers)
        self._objective.extend(objectives)
        return columns

    def set_objective_coefficient(self, name: str, coefficient: float) -> None:
        """Overwrite the objective coefficient of an existing variable."""
        self._objective[self._index[name]] = float(coefficient)

    @property
    def variables(self) -> dict[str, Variable]:
        return {
            name: Variable(
                name=name,
                lower=lower,
                upper=None if upper == np.inf else upper,
                vtype=VarType.INTEGER if integer else VarType.CONTINUOUS,
                objective=objective,
            )
            for name, lower, upper, integer, objective in zip(
                self._names, self._lower, self._upper, self._integer, self._objective
            )
        }

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def num_integer_variables(self) -> int:
        return sum(self._integer)

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def _claim_constraint_names(self, names: Sequence[str]) -> None:
        fresh = set(names)
        if len(fresh) != len(names) or not fresh.isdisjoint(self._constraint_names):
            raise ValueError(
                f"constraints {_repeated(names, self._constraint_names)!r} already "
                f"exist in model {self.name!r}"
            )
        self._constraint_names |= fresh
        self._num_constraints += len(names)

    def add_constraint(
        self,
        name: str,
        coefficients: Mapping[str, float],
        sense: Sense,
        rhs: float,
    ) -> Constraint:
        """Add a sparse constraint.  Unknown variable names raise ``KeyError``.

        Zero coefficients are dropped.
        """
        for var_name in coefficients:
            if var_name not in self._index:
                raise KeyError(
                    f"constraint {name!r} references unknown variable {var_name!r}"
                )
        self._claim_constraint_names([name])
        constraint = Constraint(
            name=name,
            coefficients={k: float(v) for k, v in coefficients.items() if v != 0.0},
            sense=sense,
            rhs=float(rhs),
        )
        self._rows.append(constraint)
        return constraint

    def add_le(self, name: str, coefficients: Mapping[str, float], rhs: float) -> Constraint:
        return self.add_constraint(name, coefficients, Sense.LE, rhs)

    def add_ge(self, name: str, coefficients: Mapping[str, float], rhs: float) -> Constraint:
        return self.add_constraint(name, coefficients, Sense.GE, rhs)

    def add_eq(self, name: str, coefficients: Mapping[str, float], rhs: float) -> Constraint:
        return self.add_constraint(name, coefficients, Sense.EQ, rhs)

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
        in the order the variables were added) of the block's row
        ``row[i]``.  Zero coefficients are dropped, as in
        :meth:`add_constraint`.  A repeated or existing name raises
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
        self._claim_constraint_names(names)
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

    def _expand(self, item: Constraint | _RowBlock) -> list[Constraint]:
        """``item`` as one :class:`Constraint` per row."""
        if isinstance(item, Constraint):
            return [item]
        order = np.argsort(item.row, kind="stable")
        bounds = np.searchsorted(item.row[order], np.arange(len(item.names) + 1)).tolist()
        cols = item.col[order].tolist()
        values = item.value[order].tolist()
        return [
            Constraint(
                name=name,
                coefficients={
                    self._names[c]: v
                    for c, v in zip(cols[start:stop], values[start:stop])
                },
                sense=item.sense,
                rhs=rhs,
            )
            for name, rhs, start, stop in zip(
                item.names, item.rhs.tolist(), bounds[:-1], bounds[1:]
            )
        ]

    @property
    def constraints(self) -> list[Constraint]:
        return [row for item in self._rows for row in self._expand(item)]

    @property
    def num_constraints(self) -> int:
        return self._num_constraints

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _stack(
        self, items: list[Constraint | _RowBlock]
    ) -> tuple[sparse.csr_matrix, np.ndarray]:
        """One CSR matrix and rhs vector for ``items``, rows in order, GE negated."""
        rows: list[int] = []
        cols: list[int] = []
        values: list[float] = []
        blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        rhs: list[float] = []
        negated: list[bool] = []
        for item in items:
            if isinstance(item, Constraint):
                for var_name, coefficient in item.coefficients.items():
                    rows.append(len(rhs))
                    cols.append(self._index[var_name])
                    values.append(coefficient)
                rhs.append(item.rhs)
                negated.append(item.sense is Sense.GE)
            else:
                blocks.append((item.row + len(rhs), item.col, item.value))
                rhs.extend(item.rhs.tolist())
                negated.extend([item.sense is Sense.GE] * len(item.names))
        single = (
            np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64),
            np.array(values, dtype=float),
        )
        row, col, value = (np.concatenate(part) for part in zip(single, *blocks))
        # GE constraints are stored negated as LE.
        sign = np.where(np.array(negated, dtype=bool), -1.0, 1.0)
        matrix = sparse.coo_matrix(
            (sign[row] * value, (row, col)), shape=(len(rhs), self.num_variables)
        ).tocsr()
        if matrix.nnz != value.size:
            # The conversion summed repeated entries.
            raise ValueError(f"model {self.name!r} gives a (row, column) pair twice")
        return matrix, sign * np.array(rhs, dtype=float)

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
        self, values: Mapping[str, float], *, tol: float = 1e-6
    ) -> list[str]:
        """Return human-readable descriptions of violated constraints/bounds."""
        violations: list[str] = []
        for name, lower, upper, integer in zip(
            self._names, self._lower, self._upper, self._integer
        ):
            value = values.get(name, 0.0)
            if value < lower - tol:
                violations.append(f"{name} = {value} below lower bound {lower}")
            if value > upper + tol:
                violations.append(f"{name} = {value} above upper bound {upper}")
            if integer and abs(value - round(value)) > tol:
                violations.append(f"{name} = {value} not integral")
        for constraint in self.constraints:
            lhs = sum(
                coefficient * values.get(var_name, 0.0)
                for var_name, coefficient in constraint.coefficients.items()
            )
            if constraint.sense is Sense.LE and lhs > constraint.rhs + tol:
                violations.append(f"{constraint.name}: {lhs} > {constraint.rhs}")
            elif constraint.sense is Sense.GE and lhs < constraint.rhs - tol:
                violations.append(f"{constraint.name}: {lhs} < {constraint.rhs}")
            elif constraint.sense is Sense.EQ and abs(lhs - constraint.rhs) > tol:
                violations.append(f"{constraint.name}: {lhs} != {constraint.rhs}")
        return violations
