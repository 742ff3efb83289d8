"""Plain-text table rendering in the style of the paper's Tables I–VI.

A :class:`Table` is a row label plus one cell per column, rendered by
:func:`render_table`; cells are preformatted strings such as the paper-style
durations of :func:`repro.analysis.timefmt.format_hms`.

:func:`pivot_table` builds a :class:`Table` straight from the flat rows that
:mod:`repro.lab.export` produces, so sweep results render as paper-style
tables without any per-experiment assembly code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = ["Table", "render_table", "pivot_table"]


@dataclass
class Table:
    """A small column-oriented table with a title and ordered rows."""

    title: str
    columns: List[str]
    rows: List[Dict[str, str]] = field(default_factory=list)
    row_label: str = ""

    def add_row(self, label: str, **cells: str) -> None:
        """Append a row; missing columns render as ``—`` like the paper."""
        row = {"__label__": label}
        for column in self.columns:
            row[column] = cells.get(column, "—")
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown column(s) {sorted(unknown)} for table {self.title!r}")
        self.rows.append(row)

    def cell(self, label: str, column: str) -> str:
        """The cell at (row ``label``, ``column``); raises ``KeyError`` if absent."""
        for row in self.rows:
            if row["__label__"] == label:
                return row[column]
        raise KeyError(label)

    def render(self) -> str:
        """Render as aligned plain text."""
        return render_table(self)


def pivot_table(
    rows: Iterable[Mapping[str, Any]],
    *,
    title: str,
    index: str,
    column: str,
    value: str,
    row_label: Optional[str] = None,
    fmt: Callable[[Any], str] = str,
    column_fmt: Callable[[Any], str] = str,
) -> Table:
    """Pivot flat result rows (see :mod:`repro.lab.export`) into a :class:`Table`.

    One table row per distinct ``index`` value, one column per distinct
    ``column`` value, cells holding ``fmt(row[value])``; both axes keep
    first-appearance order, so the caller's row ordering (e.g. clients
    descending, as in the paper's tables) carries through.  A (index,
    column) pair hit twice keeps the *last* value; pairs never hit render
    as ``—`` like the paper's missing entries.
    """
    rows = list(rows)
    index_order: List[Any] = []
    column_order: List[Any] = []
    cells: Dict[Any, Dict[str, str]] = {}
    for row in rows:
        idx, col = row[index], row[column]
        if idx not in cells:
            cells[idx] = {}
            index_order.append(idx)
        label = column_fmt(col)
        if label not in column_order:
            column_order.append(label)
        cells[idx][label] = fmt(row[value])
    table = Table(title=title, columns=column_order, row_label=row_label or index)
    for idx in index_order:
        table.add_row(str(idx), **cells[idx])
    return table


def render_table(table: Table) -> str:
    """Render a :class:`Table` as aligned plain text with a title line."""
    headers = [table.row_label or ""] + list(table.columns)
    body = [[row["__label__"]] + [row[c] for c in table.columns] for row in table.rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [table.title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines)
