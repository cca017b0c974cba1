"""Plain-text rendering of experiment results (figures become tables)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.limits import CancelToken
from repro.experiments.runner import RunReport

__all__ = ["render_series", "render_table", "render_run_footer", "format_ratio"]


def format_ratio(value: float) -> str:
    """Compact ratio formatting across the paper's 1e-4 … 4 range."""
    if value < 0.01:
        return f"{value:.4f}"
    if value < 0.1:
        return f"{value:.3f}"
    return f"{value:.2f}"


def render_series(
    title: str,
    x_label: str,
    series: Dict[str, List[Tuple[float, float]]],
    y_format=lambda v: f"{v:.1f}",
) -> str:
    """Render ``{name: [(x, y), …]}`` as one table with a column per name."""
    xs = sorted({x for points in series.values() for x, _y in points})
    names = sorted(series)
    lookup = {name: dict(points) for name, points in series.items()}
    header = [x_label] + names
    rows = []
    for x in xs:
        row = [f"{x:g}"]
        for name in names:
            y = lookup[name].get(x)
            row.append("—" if y is None else y_format(y))
        rows.append(row)
    return render_table(title, header, rows)


def render_table(title: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))

    def line(cells):
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))

    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    parts = [title, sep, line(header), sep]
    parts += [line(row) for row in rows]
    parts.append(sep)
    return "\n".join(parts)


def render_run_footer(
    report: RunReport, unit: str, cancel: Optional[CancelToken] = None
) -> str:
    """The lines a harness prints under its table: how far a cancelled
    run got (``unit`` names its tasks) and which tasks failed.  Each line
    starts with a newline; empty when the run neither was cancelled nor
    lost a task."""
    text = ""
    if report.cancelled:
        reason = f" ({cancel.reason})" if cancel is not None and cancel.reason else ""
        text += (
            f"\ncancelled after {report.completed + report.resumed}"
            f"/{report.total} {unit}{reason}"
        )
    if report.failed_instances:
        failures = ", ".join(f"{f.key} ({f.error})" for f in report.failed_instances)
        text += f"\nfailed instances: {failures}"
    return text
