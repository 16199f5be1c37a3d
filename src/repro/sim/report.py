"""Fixed-width table rendering for benchmark output.

Every benchmark prints its table/figure rows through these helpers so the
regenerated artifacts look uniform and diff cleanly against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["render_table"]


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Monospace table with a header rule."""
    cols = len(headers)
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    for row in cells:
        if len(row) != cols:
            raise ValueError(f"row has {len(row)} cells, expected {cols}")
    widths = [max(len(row[i]) for row in cells) for i in range(cols)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
