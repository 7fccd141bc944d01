"""Plain-text table rendering for the harness and benchmarks.

Everything the paper shows as a bar chart is rendered here as an aligned
table of the same series (we regenerate the *data* of each figure; the
bars are the reader's imagination).  A tiny ASCII bar helper is included
for terminal niceness.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

Cell = Union[str, int, float]


def _render(cell: Cell, float_fmt: str) -> str:
    if isinstance(cell, float):
        return format(cell, float_fmt)
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    float_fmt: str = ".3f",
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned monospace table.

    Numbers are right-aligned, text left-aligned; floats use
    ``float_fmt``.
    """
    rendered: List[List[str]] = [[str(h) for h in headers]]
    numeric: List[bool] = [False] * len(headers)
    body = []
    for row in rows:
        cells = [_render(c, float_fmt) for c in row]
        body.append(cells)
        for i, c in enumerate(row):
            if isinstance(c, (int, float)):
                numeric[i] = True
    rendered.extend(body)
    widths = [
        max(len(r[i]) for r in rendered if i < len(r))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    for irow, row in enumerate(rendered):
        cells = []
        for i, cell in enumerate(row):
            if numeric[i] and irow > 0:
                cells.append(cell.rjust(widths[i]))
            else:
                cells.append(cell.ljust(widths[i]))
        lines.append(" | ".join(cells))
        if irow == 0:
            lines.append(sep.replace("-+-", "-+-"))
    return "\n".join(lines)
