"""Spans and counts around the EPTAS layers, recorded from outside the program.

``instrument(tracer)`` wraps, for its duration:

* the stage functions as bound in ``repro.eptas.driver``'s namespace
  (bracket, prepare, patterns, milp, place, repair, revert);
* ``LinearModel.compile`` and ``Schedule.validate``;
* the solver service, replaced through ``service_scope`` by a subclass that
  records each solve's status and HiGHS node count.

Every call records a span whose parent is the innermost enclosing span, so
the chain ends at the ``eptas`` span the benchmark opens around each
``eptas_schedule`` call.  A span's self time is its duration minus its
children's, so ``solver`` excludes the ``compile`` it triggers.  A stage name
missing from ``repro.eptas.driver`` is skipped, and its metrics read 0.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core.errors import SolverLimitError
from repro.core.schedule import Schedule
from repro.eptas import driver
from repro.milp.model import LinearModel
from repro.solver.service import SolverService, service_scope

__all__ = ["LAYER_COUNTS", "LAYER_SECONDS", "Tracer", "instrument"]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    call: int  # id of the root span: the eptas_schedule call it belongs to
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "call": self.call,
            "start": self.start, "end": self.end, "self_s": self.self_s,
        }


class Tracer:
    """In-memory spans plus counts recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent else None,
            call=parent.call if parent else len(self.spans),
            start=time.perf_counter(),
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += record.end - record.start

    def self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for record in self.spans:
            totals[record.name] += record.self_s
        return dict(totals)


def _count(key: str, measure: Callable[[Any], float]) -> Callable[[Tracer, Any], None]:
    def hook(tracer: Tracer, result: Any) -> None:
        tracer.counts[key] += measure(result)

    return hook


def _milp_size(tracer: Tracer, configuration: Any) -> None:
    summary = configuration.model.summary()
    tracer.counts["milp.int_vars"] += summary["integer_variables"]
    tracer.counts["milp.cont_vars"] += summary["continuous_variables"]
    tracer.counts["milp.rows"] += summary["constraints"]


# name in repro.eptas.driver -> (span name, count hook on the result)
_DRIVER_STAGES: dict[str, tuple[str, Callable[[Tracer, Any], None] | None]] = {
    "best_lower_bound": ("bracket.lower_bound", None),
    "greedy_assign": ("bracket.greedy", None),
    "scale_and_round": ("prepare.round", None),
    "classify_jobs": ("prepare.classify", None),
    "classify_bags": (
        "prepare.classify", _count("prepare.priority_bags", lambda r: len(r.priority))
    ),
    "transform_instance": ("prepare.transform", None),
    "collect_entry_types": ("patterns.enumerate", _count("patterns.entry_types", len)),
    "enumerate_patterns": ("patterns.enumerate", _count("patterns.count", len)),
    "build_configuration_milp": ("milp.assemble", _milp_size),
    "place_large_and_medium": ("place.large", _count("place.swaps", lambda r: r.swaps)),
    "place_small_jobs": ("place.small", None),
    "resolve_conflicts": (
        "repair", _count("repair.conflicts", lambda r: r.conflicts_found)
    ),
    "reinsert_medium_jobs": ("revert", None),
    "revert_to_original": ("revert", None),
}

# Per-layer time metric -> the span name whose self time it sums.  The
# ``eptas`` self time is what no wrapped layer covers (search loop, solution
# interpretation, result wrapping).
LAYER_SECONDS = {
    "bracket.lower_bound_s": "bracket.lower_bound",
    "bracket.greedy_s": "bracket.greedy",
    "prepare.round_s": "prepare.round",
    "prepare.classify_s": "prepare.classify",
    "prepare.transform_s": "prepare.transform",
    "patterns.enumerate_s": "patterns.enumerate",
    "milp.assemble_s": "milp.assemble",
    "compile.s": "compile",
    "solver.highs_s": "solver",
    "place.large_s": "place.large",
    "place.small_s": "place.small",
    "repair.s": "repair",
    "revert.s": "revert",
    "validate.s": "validate",
    "eptas.other_s": "eptas",
}

LAYER_COUNTS = (
    "prepare.priority_bags", "patterns.count", "patterns.entry_types",
    "patterns.cap_hits", "milp.int_vars", "milp.cont_vars", "milp.rows",
    "compile.nnz", "solver.solves", "solver.nodes", "solver.status.optimal",
    "solver.status.limit", "solver.status.infeasible", "place.swaps",
    "repair.conflicts", "validate.calls",
)


def _wrap(
    tracer: Tracer, name: str, function: Callable, hook: Callable[[Tracer, Any], None] | None
) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            try:
                result = function(*args, **kwargs)
            except SolverLimitError:
                if name == "patterns.enumerate":
                    tracer.counts["patterns.cap_hits"] += 1
                raise
        if hook is not None:
            hook(tracer, result)
        return result

    return wrapper


class _RecordingService(SolverService):
    """Inline solver service that times each solve and records its outcome."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer
        self._depth = 0

    def _record(self, solutions: list[Any]) -> None:
        for solution in solutions:
            if isinstance(solution, Exception):
                continue
            status = solution.status.value
            status = "limit" if status == "feasible" else status
            self._tracer.counts["solver.solves"] += 1
            self._tracer.counts[f"solver.status.{status}"] += 1
            self._tracer.counts["solver.nodes"] += solution.diagnostics.get("mip_node_count") or 0

    def solve(self, *args: Any, **kwargs: Any) -> Any:
        return self._traced(super().solve, args, kwargs, many=False)

    def solve_many(self, *args: Any, **kwargs: Any) -> Any:
        return self._traced(super().solve_many, args, kwargs, many=True)

    def _traced(self, method: Callable, args: tuple, kwargs: dict, *, many: bool) -> Any:
        # solve_many falls through to solve: only the outer call is a span.
        if self._depth:
            return method(*args, **kwargs)
        self._depth += 1
        try:
            with self._tracer.span("solver"):
                result = method(*args, **kwargs)
        finally:
            self._depth -= 1
        self._record(list(result) if many else [result])
        return result


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Install every wrapper for the scope's duration, then restore."""
    original_compile = LinearModel.compile
    original_validate = Schedule.validate

    def compile(model: LinearModel) -> Any:
        with tracer.span("compile"):
            compiled = original_compile(model)
        tracer.counts["compile.nnz"] += compiled.a_ub.nnz + compiled.a_eq.nnz
        return compiled

    def validate(schedule: Schedule, *args: Any, **kwargs: Any) -> Any:
        tracer.counts["validate.calls"] += 1
        with tracer.span("validate"):
            return original_validate(schedule, *args, **kwargs)

    with ExitStack() as stack:
        for attribute, (name, hook) in _DRIVER_STAGES.items():
            function = getattr(driver, attribute, None)
            if function is None:
                continue
            setattr(driver, attribute, _wrap(tracer, name, function, hook))
            stack.callback(setattr, driver, attribute, function)
        LinearModel.compile = compile  # type: ignore[method-assign]
        stack.callback(setattr, LinearModel, "compile", original_compile)
        Schedule.validate = validate  # type: ignore[method-assign]
        stack.callback(setattr, Schedule, "validate", original_validate)
        stack.enter_context(service_scope(_RecordingService(tracer)))
        yield
