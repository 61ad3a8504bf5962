"""A small model-builder for linear and mixed-integer linear programs.

The configuration MILP of Section 3, the Das–Wiese baseline, the exact
reference solver and the LP lower bound all need to assemble sparse linear
models with named variables.  :class:`LinearModel` collects variables and
constraints symbolically and compiles them to the arrays expected by the
solver backends (:mod:`repro.milp.scipy_backend` and
:mod:`repro.milp.branch_and_bound`).

The builder keeps everything sparse: constraints are stored as
``{variable name: coefficient}`` dictionaries and compiled into a
:class:`scipy.sparse.csr_matrix` once, right before solving.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

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
    *fingerprint* (name + version + option digest, the cache identity from
    the registry).

    Solves run inline, so ``solve_s`` equals ``wall_time``, ``queue_wait_s``
    is 0 and ``pooled``, ``server_pid``, ``wire_s`` and ``endpoint`` keep
    their defaults.  The fields stay because results stored by earlier
    versions, which could route solves to subprocess or remote solver
    servers, carry them.
    """

    backend: str
    fingerprint: str
    wall_time: float
    status: str
    pooled: bool = False
    server_pid: int | None = None
    queue_wait_s: float | None = None
    solve_s: float | None = None
    wire_s: float | None = None
    endpoint: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "fingerprint": self.fingerprint,
            "wall_time": self.wall_time,
            "status": self.status,
            "pooled": self.pooled,
            "server_pid": self.server_pid,
            "queue_wait_s": self.queue_wait_s,
            "solve_s": self.solve_s,
            "wire_s": self.wire_s,
            "endpoint": self.endpoint,
        }


@dataclass(slots=True)
class MilpSolution:
    """Solution of a (MI)LP model."""

    status: SolutionStatus
    objective: float
    values: dict[str, float] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)
    telemetry: SolveTelemetry | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status in (SolutionStatus.OPTIMAL, SolutionStatus.FEASIBLE)

    def value(self, name: str, default: float = 0.0) -> float:
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


class LinearModel:
    """Symbolic builder for mixed-integer linear programs.

    The objective sense is always *minimise*; negate coefficients to
    maximise.  Variable and constraint names must be unique.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: dict[str, Variable] = {}
        self._constraints: list[Constraint] = []
        self._constraint_names: set[str] = set()

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
        if name in self._variables:
            raise ValueError(f"variable {name!r} already exists in model {self.name!r}")
        variable = Variable(
            name=name,
            lower=float(lower),
            upper=None if upper is None else float(upper),
            vtype=VarType.INTEGER if integer else VarType.CONTINUOUS,
            objective=float(objective),
        )
        self._variables[name] = variable
        return variable

    def has_variable(self, name: str) -> bool:
        return name in self._variables

    def set_objective_coefficient(self, name: str, coefficient: float) -> None:
        """Overwrite the objective coefficient of an existing variable."""
        variable = self._variables[name]
        self._variables[name] = Variable(
            name=variable.name,
            lower=variable.lower,
            upper=variable.upper,
            vtype=variable.vtype,
            objective=float(coefficient),
        )

    @property
    def variables(self) -> dict[str, Variable]:
        return dict(self._variables)

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_integer_variables(self) -> int:
        return sum(1 for v in self._variables.values() if v.is_integer)

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def add_constraint(
        self,
        name: str,
        coefficients: Mapping[str, float],
        sense: Sense,
        rhs: float,
    ) -> Constraint:
        """Add a sparse constraint.  Unknown variable names raise ``KeyError``."""
        if name in self._constraint_names:
            raise ValueError(f"constraint {name!r} already exists in model {self.name!r}")
        for var_name in coefficients:
            if var_name not in self._variables:
                raise KeyError(
                    f"constraint {name!r} references unknown variable {var_name!r}"
                )
        constraint = Constraint(
            name=name,
            coefficients={k: float(v) for k, v in coefficients.items() if v != 0.0},
            sense=sense,
            rhs=float(rhs),
        )
        self._constraints.append(constraint)
        self._constraint_names.add(name)
        return constraint

    def add_le(self, name: str, coefficients: Mapping[str, float], rhs: float) -> Constraint:
        return self.add_constraint(name, coefficients, Sense.LE, rhs)

    def add_ge(self, name: str, coefficients: Mapping[str, float], rhs: float) -> Constraint:
        return self.add_constraint(name, coefficients, Sense.GE, rhs)

    def add_eq(self, name: str, coefficients: Mapping[str, float], rhs: float) -> Constraint:
        return self.add_constraint(name, coefficients, Sense.EQ, rhs)

    @property
    def constraints(self) -> list[Constraint]:
        return list(self._constraints)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self) -> CompiledModel:
        """Compile the symbolic model into dense-index sparse matrices."""
        names = tuple(self._variables.keys())
        index = {name: i for i, name in enumerate(names)}
        num_vars = len(names)

        objective = np.array(
            [self._variables[name].objective for name in names], dtype=float
        )
        lower = np.array([self._variables[name].lower for name in names], dtype=float)
        upper = np.array(
            [
                np.inf if self._variables[name].upper is None else self._variables[name].upper
                for name in names
            ],
            dtype=float,
        )
        integrality = np.array(
            [1 if self._variables[name].is_integer else 0 for name in names],
            dtype=np.int8,
        )

        ub_rows: list[int] = []
        ub_cols: list[int] = []
        ub_vals: list[float] = []
        b_ub: list[float] = []
        eq_rows: list[int] = []
        eq_cols: list[int] = []
        eq_vals: list[float] = []
        b_eq: list[float] = []

        for constraint in self._constraints:
            if constraint.sense is Sense.EQ:
                row = len(b_eq)
                for var_name, coefficient in constraint.coefficients.items():
                    eq_rows.append(row)
                    eq_cols.append(index[var_name])
                    eq_vals.append(coefficient)
                b_eq.append(constraint.rhs)
            else:
                # GE constraints are stored negated as LE.
                sign = 1.0 if constraint.sense is Sense.LE else -1.0
                row = len(b_ub)
                for var_name, coefficient in constraint.coefficients.items():
                    ub_rows.append(row)
                    ub_cols.append(index[var_name])
                    ub_vals.append(sign * coefficient)
                b_ub.append(sign * constraint.rhs)

        a_ub = sparse.coo_matrix(
            (ub_vals, (ub_rows, ub_cols)), shape=(len(b_ub), num_vars)
        ).tocsr()
        a_eq = sparse.coo_matrix(
            (eq_vals, (eq_rows, eq_cols)), shape=(len(b_eq), num_vars)
        ).tocsr()

        return CompiledModel(
            variable_names=names,
            objective=objective,
            lower=lower,
            upper=upper,
            integrality=integrality,
            a_ub=a_ub,
            b_ub=np.array(b_ub, dtype=float),
            a_eq=a_eq,
            b_eq=np.array(b_eq, dtype=float),
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
        for name, variable in self._variables.items():
            value = values.get(name, 0.0)
            if value < variable.lower - tol:
                violations.append(f"{name} = {value} below lower bound {variable.lower}")
            if variable.upper is not None and value > variable.upper + tol:
                violations.append(f"{name} = {value} above upper bound {variable.upper}")
            if variable.is_integer and abs(value - round(value)) > tol:
                violations.append(f"{name} = {value} not integral")
        for constraint in self._constraints:
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

    def variable_names(self) -> Iterable[str]:
        return self._variables.keys()
