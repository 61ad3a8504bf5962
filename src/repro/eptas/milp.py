"""The configuration MILP of Section 3 (constraints (1)–(9)).

Integer variables ``x_p`` count the machines running pattern ``p``;
variables ``y_p^{B_l^s}`` describe how many small jobs of bag ``B_l`` and
size ``s`` are placed on top of pattern ``p``.  Only the ``y`` variables of
priority bags with size above ``eps**(2k+11)`` are integral — all other
``y`` variables stay fractional, which is what keeps the integral dimension
independent of the number of bags (the paper's core idea).

The model is derived from index arrays: the ``x`` columns, the ``y``
columns that pass the headroom, priority-bag and zero-size filters, and rows
(1)–(5) as COO blocks, handed to :class:`repro.milp.LinearModel` in bulk
(:meth:`~repro.milp.LinearModel.add_columns`,
:meth:`~repro.milp.LinearModel.add_constraints`).  Nothing is built per
pattern and class pair beyond the ``y`` columns themselves, so memory stays
linear in the number of ``y`` columns plus nonzeros.  The small classes are
the guess's :class:`~repro.eptas.patterns.JobTable` classes, in its order.

A non-priority class of size 0 (in practice the fillers that the
transformation leaves for a bag without small jobs) gets no ``y`` column and
no cover row (3).  Its columns would carry no area and, through rows (5),
ask only for one machine per job of its bag, which the empty pattern
supplies at no cost because no bag has more than ``m`` jobs: the smaller
model is feasible exactly when the full one is and has the same optimal
objective.  The class keeps its index in
:attr:`ConfigurationModel.small_classes`, with an empty
``small_assignment``; small-job placement places its jobs with the other
non-priority jobs, without reading ``y``.

The module solves the model with the configured backend and reads the
solution back by column index: ``x_p`` is column ``p`` and the ``y``
columns follow in the order of :attr:`ConfigurationModel.y_pattern` and
:attr:`ConfigurationModel.y_class`.  The structured
:class:`ConfigurationSolution` is what the placement stages consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.instance import Instance
from ..milp import LinearModel, MilpSolution, Sense, SolutionStatus
from ..solver import get_solver_service
from .classification import BagClasses, SIZE_TOL
from .params import DerivedConstants, EptasConfig
from .patterns import JobTable, PatternSet, SmallClass

__all__ = [
    "ConfigurationModel",
    "ConfigurationSolution",
    "build_configuration_milp",
    "interpret_milp_solution",
    "solve_configuration_milp",
]


@dataclass(slots=True)
class ConfigurationModel:
    """The assembled MILP plus the bookkeeping needed to interpret solutions.

    Column ``p`` is ``x_p``; column ``len(patterns) + i`` is the ``y`` of
    pattern ``y_pattern[i]`` and small class ``y_class[i]``.
    """

    model: LinearModel
    patterns: PatternSet
    small_classes: tuple[SmallClass, ...]
    y_pattern: np.ndarray
    y_class: np.ndarray

    def summary(self) -> dict[str, int | float]:
        data = dict(self.model.summary())
        data.update(self.patterns.summary())
        data["small_classes"] = len(self.small_classes)
        return data


@dataclass(slots=True)
class ConfigurationSolution:
    """Interpreted MILP solution.

    ``pattern_machines[p]`` is the number of machines assigned pattern index
    ``p``; ``small_assignment[c]`` lists the ``(p, value)`` pairs, patterns
    ascending, that place a (possibly fractional) number of jobs of small
    class ``c`` on top of pattern ``p``.
    """

    feasible: bool
    status: SolutionStatus
    pattern_machines: dict[int, int] = field(default_factory=dict)
    small_assignment: list[list[tuple[int, float]]] = field(default_factory=list)
    objective: float = 0.0
    milp_diagnostics: dict[str, object] = field(default_factory=dict)


def build_configuration_milp(
    instance: Instance,
    table: JobTable,
    bag_classes: BagClasses,
    constants: DerivedConstants,
    patterns: PatternSet,
) -> ConfigurationModel:
    """Assemble the MILP (1)–(9) for the transformed instance.

    The small classes are ``table.small``.  Columns are ``x_0 … x_{P-1}``,
    then the ``y`` columns in (pattern, class) order.  Rows are (1)
    ``machines``; (2) ``cover_p`` by (bag, size), then ``cover_x`` by size;
    (3) ``cover_s`` per small class that has ``y`` columns (all but the
    non-priority classes of size 0); (4) ``area`` per pattern; (5)
    ``bagcap`` per (pattern, bag), bags in increasing order.
    """
    budget = constants.budget
    priority = bag_classes.priority
    model = LinearModel(f"eptas-{instance.name}")
    small_classes = table.small
    num_patterns = len(patterns.patterns)
    x_col = np.arange(num_patterns)

    # Rows (2), one per slot type: priority (bag, size) types, then wildcard
    # sizes.
    cover_entries = sorted(
        (entry for entry, _ in patterns.entry_types if not entry.is_wildcard),
        key=lambda entry: (entry.bag, entry.size),
    ) + sorted(
        (entry for entry, _ in patterns.entry_types if entry.is_wildcard),
        key=lambda entry: entry.size,
    )
    # Keyed by (size, bag), which is PatternEntry equality, without its
    # Python-level hash.
    cover_row = {(entry.size, entry.bag): row for row, entry in enumerate(cover_entries)}
    available = dict(patterns.entry_types)

    heights = np.fromiter(
        (pattern.height for pattern in patterns.patterns), dtype=float, count=num_patterns
    )
    slot_pattern: list[int] = []
    slot_row: list[int] = []
    slot_count: list[int] = []
    for index, pattern in enumerate(patterns.patterns):
        for entry, count in pattern.entries:
            slot_pattern.append(index)
            slot_row.append(cover_row[entry.size, entry.bag])
            slot_count.append(count)

    # The priority bags each pattern uses, as (pattern, bag code) keys; only
    # bags with small classes get a code.
    bag_ids = sorted({small.bag for small in small_classes})
    bag_code = {bag: code for code, bag in enumerate(bag_ids)}
    row_code = np.array(
        [
            bag_code.get(entry.bag, -1)
            if not entry.is_wildcard and entry.bag in priority
            else -1
            for entry in cover_entries
        ],
        dtype=np.int64,
    )
    slot_code = row_code[slot_row]
    uses = slot_code >= 0
    used = np.array(slot_pattern, dtype=np.int64)[uses] * len(bag_ids) + slot_code[uses]

    # --- x variables: machines per pattern (constraint (6)). -----------
    # Objective: any feasible solution certifies the makespan bound, so the
    # objective is a free practical tie-breaker.  The squared pattern height
    # steers the solver towards *balanced* large-job placements (stacking two
    # large jobs costs more than spreading them), which tightens the
    # constructed schedule without affecting the guarantee.
    model.add_columns(
        [f"x_{index}" for index in range(num_patterns)],
        integer=True,
        objective=heights * heights,
    )

    # --- y variables (constraints (7), (8), (9)). -----------------------
    # Only create y_{p, class} when the pattern leaves room for the size and
    # the pattern does not already use the bag (constraint (5) would force
    # the variable to zero anyway) — this keeps the model compact without
    # excluding any solution the Lemma-5 construction might need.
    class_bag = np.array([small.bag for small in small_classes], dtype=np.int64)
    class_size = np.array([small.size for small in small_classes], dtype=float)
    class_code = np.array([bag_code[small.bag] for small in small_classes], dtype=np.int64)
    class_priority = np.array([small.bag in priority for small in small_classes], dtype=bool)
    # Non-priority classes of size 0 get no y column and no cover row; the
    # module docstring says why the optimum is unchanged.
    has_y = class_priority | (class_size != 0.0)
    by_size = np.flatnonzero(has_y)[np.argsort(class_size[has_y], kind="stable")]
    # Pattern p has room for the classes by_size[:fits[p]]: one (pattern,
    # rank) pair per such class, then sorted into (pattern, class) order.
    fits = np.searchsorted(
        class_size[by_size], budget - heights + SIZE_TOL, side="right"
    )
    y_pattern = np.repeat(x_col, fits)
    rank = np.arange(len(y_pattern)) - np.repeat(np.cumsum(fits) - fits, fits)
    key = np.sort(y_pattern * len(small_classes) + by_size[rank])
    y_pattern, y_class = np.divmod(key, max(1, len(small_classes)))
    clash = np.isin(y_pattern * len(bag_ids) + class_code[y_class], used)
    y_pattern, y_class = y_pattern[~clash], y_class[~clash]
    suffix = [f"{small.bag}_{small.size:.12g}" for small in small_classes]
    y_labels = [
        f"y_{p}_{suffix[c]}" for p, c in zip(y_pattern.tolist(), y_class.tolist())
    ]
    threshold = constants.small_integral_threshold
    integral = class_priority & (class_size > threshold)
    y_columns = model.add_columns(y_labels, integer=integral[y_class])
    y_col = np.arange(y_columns.start, y_columns.stop)
    ones = np.ones(len(y_col))

    # --- (1) at most m machines. ----------------------------------------
    model.add_constraints(
        ["machines"],
        Sense.LE,
        [float(instance.num_machines)],
        row=np.zeros(num_patterns, dtype=np.int64),
        col=x_col,
        value=np.ones(num_patterns),
    )

    # --- (2) cover every medium/large job. -------------------------------
    model.add_constraints(
        [
            f"cover_x_{entry.size:.12g}"
            if entry.is_wildcard
            else f"cover_p_{entry.bag}_{entry.size:.12g}"
            for entry in cover_entries
        ],
        Sense.GE,
        [float(available[entry]) for entry in cover_entries],
        row=slot_row,
        col=slot_pattern,
        value=slot_count,
    )

    # --- (3) cover every small job of a class with y columns. ------------
    cover_s_row = np.cumsum(has_y) - 1
    model.add_constraints(
        [f"cover_s_{label}" for label, kept in zip(suffix, has_y) if kept],
        Sense.GE,
        [float(small.count) for small, kept in zip(small_classes, has_y) if kept],
        row=cover_s_row[y_class],
        col=y_col,
        value=ones,
    )

    # --- (4) area on top of a pattern fits the leftover budget. ----------
    model.add_constraints(
        [f"area_{index}" for index in range(num_patterns)],
        Sense.LE,
        np.zeros(num_patterns),
        row=np.concatenate((y_pattern, x_col)),
        col=np.concatenate((y_col, x_col)),
        value=np.concatenate((class_size[y_class], -(budget - heights))),
    )

    # --- (5) at most x_p small jobs of a bag on pattern p, none if the
    #          pattern already carries the bag. ---------------------------
    # The y columns come in (pattern, bag, size) order, so each row is a run
    # of them.  A row exists only where the pattern has a y of the bag, and
    # no y of a priority bag the pattern uses is created: the x coefficient
    # -(1 - uses) is always -1.
    y_code = class_code[y_class]
    first = np.ones(len(y_col), dtype=bool)
    first[1:] = (y_pattern[1:] != y_pattern[:-1]) | (y_code[1:] != y_code[:-1])
    cap_pattern = y_pattern[first]
    model.add_constraints(
        [
            f"bagcap_{p}_{bag}"
            for p, bag in zip(cap_pattern.tolist(), class_bag[y_class[first]].tolist())
        ],
        Sense.LE,
        np.zeros(len(cap_pattern)),
        row=np.concatenate((np.cumsum(first) - 1, np.arange(len(cap_pattern)))),
        col=np.concatenate((y_col, cap_pattern)),
        value=np.concatenate((ones, -np.ones(len(cap_pattern)))),
    )

    return ConfigurationModel(
        model=model,
        patterns=patterns,
        small_classes=small_classes,
        y_pattern=y_pattern,
        y_class=y_class,
    )


def interpret_milp_solution(
    configuration: ConfigurationModel, solution: MilpSolution
) -> ConfigurationSolution:
    """Turn a raw backend solution into the structured configuration view."""
    diagnostics = dict(solution.diagnostics)
    if solution.status not in (SolutionStatus.OPTIMAL, SolutionStatus.FEASIBLE):
        return ConfigurationSolution(
            feasible=False, status=solution.status, milp_diagnostics=diagnostics
        )

    num_patterns = len(configuration.patterns.patterns)
    machines = np.rint(solution.x[:num_patterns]).astype(np.int64)
    used = np.flatnonzero(machines > 0)
    y = solution.x[num_patterns:]
    placed = np.flatnonzero(y > 1e-9)
    small_assignment: list[list[tuple[int, float]]] = [
        [] for _ in configuration.small_classes
    ]
    # The y columns come in (pattern, class) order: patterns ascend per class.
    for pattern, small, value in zip(
        configuration.y_pattern[placed].tolist(),
        configuration.y_class[placed].tolist(),
        y[placed].tolist(),
    ):
        small_assignment[small].append((pattern, value))
    return ConfigurationSolution(
        feasible=True,
        status=solution.status,
        pattern_machines=dict(zip(used.tolist(), machines[used].tolist())),
        small_assignment=small_assignment,
        objective=solution.objective,
        milp_diagnostics=diagnostics,
    )


def solve_configuration_milp(
    configuration: ConfigurationModel, *, config: EptasConfig
) -> ConfigurationSolution:
    """Solve the configuration MILP through the current solver service."""
    solution = get_solver_service().solve(
        configuration.model, spec=config.backend_spec, time_limit=config.milp_time_limit
    )
    return interpret_milp_solution(configuration, solution)
