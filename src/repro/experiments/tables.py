"""Table/series containers shared by the experiment drivers and benchmarks.

The paper has no numeric tables of its own (it is a theory paper); the
experiment harness therefore produces its *own* tables — one per experiment
listed in DESIGN.md — and EXPERIMENTS.md records the paper's claim next to
the measured numbers.  This module provides a tiny, dependency-free table
abstraction with text and CSV rendering so that every experiment prints the
same kind of artefact.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = ["ExperimentTable"]


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000 or (abs(value) < 0.001 and value != 0):
            return f"{value:.3e}"
        return f"{value:.4g}"
    if value is None:
        return "-"
    return str(value)


@dataclass(slots=True)
class ExperimentTable:
    """A titled table of experiment results.

    ``rows`` are mappings from column name to value; the column order is the
    order of first appearance unless ``columns`` is given explicitly.
    """

    experiment_id: str
    title: str
    columns: list[str] = field(default_factory=list)
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, row: Mapping[str, Any]) -> None:
        for key in row:
            if key not in self.columns:
                self.columns.append(key)
        self.rows.append(dict(row))

    def add_rows(self, rows: Iterable[Mapping[str, Any]]) -> None:
        for row in rows:
            self.add_row(row)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> list[Any]:
        """All values of one column (missing cells become ``None``)."""
        return [row.get(name) for row in self.rows]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Render as an aligned plain-text table."""
        header = [str(column) for column in self.columns]
        body = [[_format_cell(row.get(column)) for column in self.columns] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for line in body:
            lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Render as a GitHub-flavoured markdown table."""
        lines = [f"### {self.experiment_id}: {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("| " + " | ".join("---" for _ in self.columns) + " |")
        for row in self.rows:
            lines.append(
                "| " + " | ".join(_format_cell(row.get(column)) for column in self.columns) + " |"
            )
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self.columns)
        writer.writeheader()
        for row in self.rows:
            writer.writerow({column: row.get(column) for column in self.columns})
        return buffer.getvalue()

    def save_csv(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_csv())
        return path

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
        }
