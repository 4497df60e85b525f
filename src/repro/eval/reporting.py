"""Paper-style table and series formatting for benchmark output."""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_mean_min_max", "format_series"]


def format_mean_min_max(mean: float, low: float, high: float) -> str:
    """The Table I cell format: ``0.98 (0.94, 1.00)``."""
    return f"{mean:.2f} ({low:.2f}, {high:.2f})"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 title: str | None = None) -> str:
    """Monospace table with aligned columns."""
    columns = [list(map(str, column)) for column in zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence, ys: Sequence[float], decimals: int = 3) -> str:
    """A figure series as one line: ``name: x=..., y=...``."""
    pairs = ", ".join(f"{x}:{y:.{decimals}f}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"
