"""Plain-text reporting of experiment results.

Every experiment prints the same rows/series the paper's table or figure
shows: per-query (x, y) pairs for the scatter plots, per-template ratios for
the bar charts, per-window switch counts for Fig 10.
"""

from __future__ import annotations

from typing import Any, Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str | None = None
) -> str:
    """Render an ASCII table with right-aligned numeric columns."""

    def render(cell: Any) -> str:
        if isinstance(cell, float):
            return f"{cell:,.2f}"
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in rendered)
    return "\n".join(parts)


def format_scatter_summary(
    pairs: Sequence[tuple[str, float, float]],
    x_label: str = "static",
    y_label: str = "adaptive",
    sample: int = 15,
) -> str:
    """Summarize a Fig 7 / Fig 11 style scatter: pairs of (qid, x, y)."""
    if not pairs:
        return "(no data)"
    total_x = sum(x for _, x, _ in pairs)
    total_y = sum(y for _, _, y in pairs)
    speedups = [(qid, x / y if y > 0 else float("inf")) for qid, x, y in pairs]
    best_qid, best = max(speedups, key=lambda item: item[1])
    worst_qid, worst = min(speedups, key=lambda item: item[1])
    below = sum(1 for _, s in speedups if s > 1.0)
    lines = [
        f"{len(pairs)} queries; points below the diagonal improve",
        f"  total improvement: {(1 - total_y / total_x) * 100:.1f}% "
        f"({x_label} {total_x:,.0f} -> {y_label} {total_y:,.0f} work units)",
        f"  max speedup: {best:.2f}x ({best_qid}); "
        f"worst: {worst:.2f}x ({worst_qid})",
        f"  improved queries: {below}/{len(pairs)}",
        f"  sample points ({x_label}, {y_label}):",
    ]
    step = max(len(pairs) // sample, 1)
    for qid, x, y in pairs[::step][:sample]:
        lines.append(f"    {qid}: ({x:,.0f}, {y:,.0f})  [{x / max(y, 1e-9):.2f}x]")
    return "\n".join(lines)
