"""Result tables: the single rendering path for experiments.

Every experiment produces a :class:`ResultTable`; the CLI prints it and
the artifact store archives it — one format, no drift.  Cells hold raw
Python values; formatting is applied at render time (floats in
engineering-friendly ``%.4g``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


@dataclass
class ResultTable:
    """A titled table of experiment rows."""

    title: str
    columns: Sequence[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Append a row; must match the column count."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"table {self.title!r}: expected {len(self.columns)} values "
                f"(columns {list(self.columns)}), got {len(values)}"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        """Attach a free-text note rendered under the table."""
        self.notes.append(note)

    def column(self, name: str) -> list[Any]:
        """Extract one column by name."""
        columns = list(self.columns)
        if name not in columns:
            raise ValueError(
                f"table {self.title!r} has no column {name!r}; "
                f"available columns: {', '.join(map(repr, columns))}"
            )
        index = columns.index(name)
        return [row[index] for row in self.rows]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Fixed-width text rendering."""
        header = [str(c) for c in self.columns]
        body = [[_format_cell(v) for v in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """GitHub-flavoured markdown rendering (for EXPERIMENTS.md)."""
        header = "| " + " | ".join(str(c) for c in self.columns) + " |"
        rule = "|" + "|".join("---" for _ in self.columns) + "|"
        lines = [f"**{self.title}**", "", header, rule]
        for row in self.rows:
            lines.append("| " + " | ".join(_format_cell(v) for v in row) + " |")
        for note in self.notes:
            lines.append(f"\n_note: {note}_")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """JSON-ready dict; inverse of :meth:`from_payload`."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ResultTable":
        """Rebuild a table from :meth:`to_payload` output."""
        return cls(
            title=payload["title"],
            columns=list(payload["columns"]),
            rows=[list(row) for row in payload["rows"]],
            notes=list(payload.get("notes", [])),
        )

    def to_json(self) -> str:
        """JSON serialisation for archival."""
        return json.dumps(self.to_payload(), default=str, indent=2)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()
