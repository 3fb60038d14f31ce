"""Plain-text table/series formatting shared by benchmarks and examples.

The benchmark harness prints the same rows and series the paper's tables
and figures report; these helpers keep that output consistent and easy to
diff against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A fixed-width text table with a header rule."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, value in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(value))
            else:
                widths.append(len(value))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append(
            "  ".join(value.ljust(widths[i]) for i, value in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def format_seconds(seconds: float) -> str:
    """Human scale: µs → s → min → h."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 120.0:
        return f"{seconds:.2f}s"
    if seconds < 7200.0:
        return f"{seconds / 60.0:.1f}min"
    return f"{seconds / 3600.0:.2f}h"


def format_bytes(num_bytes: int) -> str:
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024.0 or unit == "TB":
            return f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}TB"  # pragma: no cover - loop always returns


def format_count(count: int) -> str:
    """Compact counts: 1.2K / 3.4M / 5.6B."""
    value = float(count)
    for threshold, suffix in ((1e9, "B"), (1e6, "M"), (1e3, "K")):
        if abs(value) >= threshold:
            return f"{value / threshold:.1f}{suffix}"
    return str(count)


def speedup(baseline: float, improved: float) -> float:
    """``baseline / improved`` guarded against zero."""
    if improved <= 0:
        return float("inf") if baseline > 0 else 1.0
    return baseline / improved


def series(label: str, xs: Sequence[object], ys: Sequence[float]) -> str:
    """One figure series as aligned ``x: y`` pairs."""
    lines = [f"[{label}]"]
    for x, y in zip(xs, ys):
        lines.append(f"  {x}: {y:.4f}" if isinstance(y, float) else f"  {x}: {y}")
    return "\n".join(lines)


def bar_chart(
    labels: Sequence[object],
    values: Sequence[float],
    width: int = 48,
    unit: str = "",
) -> str:
    """An ASCII horizontal bar chart — the benchmark harness's "figure".

    Bars are scaled to the maximum value; each row is
    ``label  |██████____| value``.
    """
    if not values:
        return "(no data)"
    peak = max(values) or 1.0
    label_width = max(len(str(label)) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        filled = int(round(width * value / peak))
        bar = "#" * filled + "." * (width - filled)
        rendered = (
            f"{value:.3g}{unit}" if isinstance(value, float) else str(value)
        )
        lines.append(f"{str(label).ljust(label_width)}  |{bar}| {rendered}")
    return "\n".join(lines)


def _cell(value: object) -> str:
    """A table cell: floats to three decimals, except that a nonzero float
    below 0.001 keeps four significant digits instead of reading 0.000
    or 0.001."""
    if isinstance(value, float):
        if 0 < abs(value) < 0.001:
            return f"{value:.4g}"
        return f"{value:.3f}"
    return str(value)


__all__: List[str] = [
    "bar_chart",
    "format_bytes",
    "format_count",
    "format_seconds",
    "format_table",
    "series",
    "speedup",
]
