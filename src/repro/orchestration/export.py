"""Pull completed store rows back into tables, CSV and LaTeX.

The export path reuses the exact same ``reduce_rows`` aggregation as the
inline drivers, so a table exported from an orchestrated (parallel, resumed,
cached) run is identical to the table the classic
``repro.experiments.drivers`` functions produce.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ..experiments.tables import ExperimentTable
from . import registry
from .store import params_hash

if TYPE_CHECKING:  # the extracted store surface; local and remote stores both satisfy it
    from ..distributed.protocol import StoreProtocol

__all__ = [
    "table_from_store",
    "render_table",
    "to_latex",
    "export_experiment",
    "aggregate_service_telemetry",
    "aggregate_solver_telemetry",
    "format_service_telemetry",
    "format_solver_telemetry",
    "replan_trend",
    "service_table",
    "FORMATS",
]

FORMATS = ("text", "markdown", "csv", "latex")

_LATEX_SPECIALS = {
    "&": r"\&",
    "%": r"\%",
    "$": r"\$",
    "#": r"\#",
    "_": r"\_",
    "{": r"\{",
    "}": r"\}",
    "~": r"\textasciitilde{}",
    "^": r"\textasciicircum{}",
    "\\": r"\textbackslash{}",
}


def _latex_escape(text: str) -> str:
    return "".join(_LATEX_SPECIALS.get(char, char) for char in text)


def _latex_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "--"
    if isinstance(value, float):
        if value != value:  # NaN
            return "--"
        return f"{value:.4g}"
    return _latex_escape(str(value))


def to_latex(table: ExperimentTable) -> str:
    """Render a table as a standalone LaTeX ``table`` environment."""
    columns = table.columns
    lines = [
        r"\begin{table}[ht]",
        r"\centering",
        rf"\caption{{{_latex_escape(f'{table.experiment_id}: {table.title}')}}}",
        r"\begin{tabular}{" + "l" * len(columns) + "}",
        r"\toprule",
        " & ".join(_latex_escape(str(column)) for column in columns) + r" \\",
        r"\midrule",
    ]
    for row in table.rows:
        lines.append(" & ".join(_latex_cell(row.get(column)) for column in columns) + r" \\")
    lines.append(r"\bottomrule")
    lines.append(r"\end{tabular}")
    for note in table.notes:
        lines.append(rf"\par\small {_latex_escape(note)}")
    lines.append(r"\end{table}")
    return "\n".join(lines)


def aggregate_solver_telemetry(done_rows: list[Any]) -> dict[str, Any] | None:
    """Sum the per-cell ``_solver_telemetry`` payloads of completed rows.

    The runner attaches a solver-service stats delta (solve count, wall
    time and a backend-fingerprint histogram) to every completed cell; this
    rolls them up for the export note and ``orch status``.  A missing key
    counts as 0 or empty, and other keys (rows stored by earlier versions
    also carry a pooled count, a time split and an endpoint histogram) are
    ignored.  Returns ``None`` when no row carries telemetry.
    """
    totals: dict[str, Any] = {"solves": 0, "wall_time": 0.0, "backends": {}}
    for row in done_rows:
        payload = (row.result or {}).get("_solver_telemetry")
        if not isinstance(payload, dict):
            continue
        totals["solves"] += int(payload.get("solves", 0))
        totals["wall_time"] += float(payload.get("wall_time", 0.0))
        for name, count in (payload.get("backends") or {}).items():
            totals["backends"][name] = totals["backends"].get(name, 0) + int(count)
    return totals if totals["solves"] else None


def format_solver_telemetry(totals: dict[str, Any]) -> str:
    """One-line rollup of :func:`aggregate_solver_telemetry` totals."""
    backend_text = ", ".join(
        f"{fingerprint} x{count}"
        for fingerprint, count in sorted(totals["backends"].items())
    )
    return (
        f"solver telemetry: {totals['solves']} MILP solves, "
        f"{totals['wall_time']:.2f}s solver wall time; backends: {backend_text}"
    )


def _solver_telemetry_note(done_rows: list[Any]) -> str | None:
    totals = aggregate_solver_telemetry(done_rows)
    return format_solver_telemetry(totals) if totals else None


def aggregate_service_telemetry(
    done_rows: list[Any], tail: Mapping[str, int] | None = None
) -> dict[str, int] | None:
    """Sum the per-request ``_service_telemetry`` deltas of completed rows.

    The scheduling service (:mod:`repro.service`) flushes its counter
    deltas — requests seen, admitted, rejected at admission, served from
    cache, actually solved — into each journal row it completes, the same
    per-row-delta convention the runner uses for ``_solver_telemetry``, so
    summing over done rows reconstructs the service totals from the store
    file alone.  ``tail`` is the journaled remainder for counters that never
    reach a completed row (rejections, replays, retries) — pass the store's
    ``service_telemetry_tail()`` so restarts don't silently zero them.
    Returns ``None`` when no row carries telemetry and the tail is empty.
    """
    totals = {"requests": 0, "admitted": 0, "rejected": 0, "cache_hits": 0, "solves": 0}
    seen = False
    for row in done_rows:
        # Literal key (not imported from repro.service): export must render
        # stores written by any service version without importing solvers.
        payload = (row.result or {}).get("_service_telemetry")
        if not isinstance(payload, dict):
            continue
        seen = True
        for key in totals:
            totals[key] += int(payload.get(key, 0))
    for key, count in (tail or {}).items():
        if key in totals and count:
            seen = True
            totals[key] += int(count)
    return totals if seen else None


def format_service_telemetry(totals: dict[str, int]) -> str:
    """One-line rollup of :func:`aggregate_service_telemetry` totals."""
    return (
        f"service telemetry: {totals['requests']} requests "
        f"({totals['admitted']} admitted, {totals['rejected']} rejected), "
        f"{totals['cache_hits']} cache hits, {totals['solves']} solves"
    )


def service_table(store: "StoreProtocol") -> ExperimentTable:
    """Per-solver rollup of the scheduling service's ``service`` journal.

    The ``service`` namespace is ad-hoc request history, not a registered
    experiment grid, so it gets its own table: one row per solver with
    request/error counts and duration statistics, plus the telemetry note.
    """
    rows = store.fetch_rows("service")
    table = ExperimentTable("service", "scheduling service request journal")
    per_solver: dict[str, dict[str, Any]] = {}
    for row in rows:
        solver = str((row.params or {}).get("solver", "?"))
        bucket = per_solver.setdefault(
            solver, {"requests": 0, "done": 0, "errors": 0, "durations": []}
        )
        bucket["requests"] += 1
        if row.status == "done":
            bucket["done"] += 1
            if row.duration is not None:
                bucket["durations"].append(float(row.duration))
        elif row.status == "error":
            bucket["errors"] += 1
    for solver in sorted(per_solver):
        bucket = per_solver[solver]
        durations = bucket["durations"]
        table.add_row(
            {
                "solver": solver,
                "requests": bucket["requests"],
                "done": bucket["done"],
                "errors": bucket["errors"],
                "mean_duration_s": (sum(durations) / len(durations)) if durations else None,
                "max_duration_s": max(durations) if durations else None,
            }
        )
    done_rows = [row for row in rows if row.status == "done"]
    # Older stores (or plain dict-shaped fakes) may predate the journaled
    # tail; render them without it rather than failing the export.
    tail_getter = getattr(store, "service_telemetry_tail", None)
    tail = tail_getter() if callable(tail_getter) else None
    totals = aggregate_service_telemetry(done_rows, tail)
    if totals:
        table.add_note(format_service_telemetry(totals))
    if not rows:
        table.add_note("no service requests journaled in this store")
    return table


def _scheduling_note(done_rows: list[Any]) -> str | None:
    """Roll scheduler bookkeeping up into one table note.

    Reports how well the cost model *ordered* the cells — the fraction of
    cell pairs where the estimate and the measured duration agree on which
    is bigger.  Rank agreement is unit-free, so it stays meaningful while
    estimates are still in hint units (before any duration history exists).
    Also counts cells gated on hoisted prerequisites.
    """
    estimated = [
        (row.cost_estimate, row.duration)
        for row in done_rows
        if row.cost_estimate is not None and row.duration is not None
    ]
    gated = sum(1 for row in done_rows if row.depends_on)
    if not estimated and not gated:
        return None
    parts: list[str] = []
    if estimated:
        parts.append(f"{len(estimated)}/{len(done_rows)} cells cost-estimated")
        concordant = discordant = 0
        for index, (est_a, dur_a) in enumerate(estimated):
            for est_b, dur_b in estimated[index + 1 :]:
                product = (est_a - est_b) * (dur_a - dur_b)
                if product > 0:
                    concordant += 1
                elif product < 0:
                    discordant += 1
        if concordant + discordant:
            agreement = concordant / (concordant + discordant)
            parts.append(f"claim-order agreement {agreement:.0%}")
    if gated:
        parts.append(f"{gated} cells gated on hoisted prerequisites")
    return "scheduling: " + "; ".join(parts)


def replan_trend(done_rows: list[Any]) -> list[dict[str, Any]]:
    """Cost-model accuracy per re-plan epoch, one point per epoch.

    Every claimed row carries the re-plan epoch it was claimed under; the
    geometric mean of ``cost_estimate / duration`` per epoch shows the
    online refit converging toward 1x (epoch 0 estimates are raw hint
    units, so their ratio is usually off by orders of magnitude — that
    starting point *is* the story).  Each point is
    ``{"epoch": int, "accuracy": float, "n": int}``; empty when no row
    carries a usable estimate/duration pair.  Shared by the export note
    and the dashboard's convergence sparkline.
    """
    by_epoch: dict[int, list[float]] = {}
    for row in done_rows:
        if (
            row.cost_estimate is not None
            and row.cost_estimate > 0
            and row.duration is not None
            and row.duration > 0
        ):
            by_epoch.setdefault(row.epoch, []).append(row.cost_estimate / row.duration)
    trend = []
    for epoch in sorted(by_epoch):
        ratios = by_epoch[epoch]
        gmean = math.exp(sum(math.log(ratio) for ratio in ratios) / len(ratios))
        trend.append({"epoch": epoch, "accuracy": gmean, "n": len(ratios)})
    return trend


def _replan_trend_note(done_rows: list[Any]) -> str | None:
    """:func:`replan_trend` rendered as a one-line convergence note.

    Emitted only when re-planning actually fired, i.e. some row was
    claimed under an epoch > 0.
    """
    trend = replan_trend(done_rows)
    if not trend or max(point["epoch"] for point in trend) == 0:
        return None
    parts = [
        f"epoch {point['epoch']}: {point['accuracy']:.3g}x (n={point['n']})"
        for point in trend
    ]
    return (
        "cost-model accuracy by re-plan epoch (estimate/actual, geometric "
        "mean): " + " -> ".join(parts)
    )


def table_from_store(
    store: "StoreProtocol",
    experiment: str,
    *,
    quick: bool = True,
    seed: int = 0,
    require_complete: bool = False,
) -> ExperimentTable:
    """Assemble the experiment's table from the store, scoped to one grid.

    The table is built against the *definition* of the grid (``quick`` and
    ``seed`` must match the ``repro orch run`` invocation): only rows whose
    content hash belongs to that grid are used, so quick- and full-variant
    rows coexisting in one store never contaminate each other's aggregates,
    and cells that were never populated still count as missing.
    """
    spec = registry.get_spec(experiment)
    expected = registry.expand_grid(spec, quick=quick, seed=seed)
    grid_order = {
        params_hash(spec.name, params): index for index, params in enumerate(expected)
    }
    rows = [
        row
        for row in store.fetch_rows(spec.name)
        if params_hash(spec.name, row.params) in grid_order
    ]
    rows.sort(key=lambda row: grid_order[params_hash(spec.name, row.params)])
    done = [row for row in rows if row.status == "done" and row.result]
    missing = len(expected) - len(done)
    variant = "quick" if quick else "full"
    if require_complete and missing:
        raise RuntimeError(
            f"experiment {spec.name!r} has {missing} unfinished cells of the "
            f"{variant} grid (seed={seed}); run `repro orch run` to completion first"
        )
    table = registry.assemble_table(spec, [(row.params, row.result) for row in done])
    telemetry_note = _solver_telemetry_note(done)
    if telemetry_note:
        table.add_note(telemetry_note)
    scheduling_note = _scheduling_note(done)
    if scheduling_note:
        table.add_note(scheduling_note)
    trend_note = _replan_trend_note(done)
    if trend_note:
        table.add_note(trend_note)
    if missing:
        # Never let a partially-run grid masquerade as a finished experiment:
        # reduced columns (means over seeds) would silently cover a subset.
        statuses = sorted({row.status for row in rows if row.status != "done"})
        table.add_note(
            f"INCOMPLETE: {len(done)}/{len(expected)} cells of the {variant} grid "
            f"(seed={seed}) are done"
            + (f"; statuses present: {statuses}" if statuses else "; rest never populated")
            + " — aggregates cover only the completed cells"
        )
    return table


def render_table(table: ExperimentTable, fmt: str) -> str:
    """Render a table in one of :data:`FORMATS`."""
    if fmt == "text":
        return table.to_text()
    if fmt == "markdown":
        return table.to_markdown()
    if fmt == "csv":
        return table.to_csv()
    if fmt == "latex":
        return to_latex(table)
    raise ValueError(f"unknown export format {fmt!r}; available: {FORMATS}")


_EXTENSIONS = {"text": ".txt", "markdown": ".md", "csv": ".csv", "latex": ".tex"}


def export_experiment(
    store: "StoreProtocol",
    experiment: str,
    fmt: str = "text",
    *,
    quick: bool = True,
    seed: int = 0,
    output_dir: str | os.PathLike[str] | None = None,
) -> str:
    """Render one experiment; optionally also write it under ``output_dir``."""
    table = table_from_store(store, experiment, quick=quick, seed=seed)
    rendered = render_table(table, fmt)
    if output_dir is not None:
        directory = Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{registry.get_spec(experiment).name}{_EXTENSIONS[fmt]}"
        path.write_text(rendered + ("\n" if not rendered.endswith("\n") else ""))
    return rendered
