"""ASCII charts: render benchmark series without a plotting stack.

The paper's figures are log-log running-time plots; this module renders
the same series legibly in a terminal, which is all the benchmark
harness needs (`python -m repro bench fig2ab --plot`).  Pure functions
from data to strings — easy to test, nothing to configure.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "line_chart",
    "log_line_chart",
    "fleet_utilization_chart",
]


def fleet_utilization_chart(report: dict, width: int = 40) -> str:
    """Per-device busy/sync bars for a :func:`repro.fleet.fleet_report`.

    One row per fleet member: ``#`` is modeled busy time, ``.`` is time
    spent waiting at (or inside) collective steps, scaled to the fleet
    makespan.  An empty shard (zero points) renders an empty bar.
    Degenerate reports (no devices, missing keys, a zero-second
    makespan) render a placeholder or a zero-width bar instead of
    raising.
    """
    devices = report.get("devices") or []
    if not devices:
        return "(no devices)"
    makespan = float(report.get("total_seconds") or 0.0)
    labels = [
        f"gpu{entry.get('device', index)} {entry.get('spec', '?')}"
        for index, entry in enumerate(devices)
    ]
    label_width = max(len(label) for label in labels)
    lines = [
        f"{report.get('name', 'fleet')}: modeled makespan "
        f"{makespan * 1e3:.3f} ms, "
        f"{float(report.get('communication_fraction') or 0.0) * 100:.1f}% in "
        f"{float(report.get('allreduce_steps') or 0):.0f} all-reduce + "
        f"{float(report.get('broadcast_steps') or 0):.0f} broadcast steps"
    ]
    for label, entry in zip(labels, devices):
        busy = float(entry.get("busy_seconds") or 0.0)
        sync = float(entry.get("sync_seconds") or 0.0)
        if makespan > 0:
            busy_cells = round(busy / makespan * width)
            sync_cells = round(sync / makespan * width)
        else:
            busy_cells = sync_cells = 0
        bar = "#" * max(0, busy_cells) + "." * max(0, sync_cells)
        lines.append(
            f"{label.ljust(label_width)} |{bar.ljust(width)[:width]}| "
            f"busy {busy * 1e3:.3f} ms, sync {sync * 1e3:.3f} ms"
        )
    return "\n".join(lines)


def _render_grid(
    xs: list[float],
    series: dict[str, list[float]],
    width: int,
    height: int,
    x_label: str,
    y_format,
) -> str:
    markers = "*o+x@%&"
    all_y = [y for ys in series.values() for y in ys]
    lo, hi = min(all_y), max(all_y)
    span = (hi - lo) or 1.0
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0

    grid = [[" "] * width for _ in range(height + 1)]
    for index, (name, ys) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in zip(xs, ys):
            col = round((x - x_lo) / x_span * (width - 1))
            row = height - round((y - lo) / span * height)
            grid[row][col] = marker

    lines = []
    for row_index, row in enumerate(grid):
        value = hi - (row_index / height) * span
        lines.append(f"{y_format(value):>12} |{''.join(row)}")
    lines.append(" " * 13 + "+" + "-" * width)
    lines.append(" " * 14 + x_label)
    legend = "   ".join(
        f"{markers[i % len(markers)]} {name}"
        for i, name in enumerate(series)
    )
    lines.append(" " * 14 + legend)
    return "\n".join(lines)


def line_chart(
    xs: Sequence[float],
    series: dict[str, Sequence[float]],
    width: int = 60,
    height: int = 12,
    x_label: str = "x",
) -> str:
    """Multi-series scatter/line chart on linear axes."""
    xs = [float(x) for x in xs]
    series = {name: [float(v) for v in ys] for name, ys in series.items()}
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(
                f"series {name!r} has {len(ys)} points for {len(xs)} x values"
            )
    if not xs or not series:
        return "(no data)"
    return _render_grid(xs, series, width, height, x_label, lambda v: f"{v:.4g}")


def log_line_chart(
    xs: Sequence[float],
    series: dict[str, Sequence[float]],
    width: int = 60,
    height: int = 12,
    x_label: str = "x (log)",
) -> str:
    """Multi-series chart on log-log axes (the paper's figure style).

    All values must be positive.
    """
    xs = [float(x) for x in xs]
    if any(x <= 0 for x in xs):
        raise ValueError("log chart requires positive x values")
    log_series = {}
    for name, ys in series.items():
        ys = [float(v) for v in ys]
        if len(ys) != len(xs):
            raise ValueError(
                f"series {name!r} has {len(ys)} points for {len(xs)} x values"
            )
        if any(v <= 0 for v in ys):
            raise ValueError(f"log chart requires positive values in {name!r}")
        log_series[name] = [math.log10(v) for v in ys]
    if not xs or not series:
        return "(no data)"
    log_xs = [math.log10(x) for x in xs]
    return _render_grid(
        log_xs, log_series, width, height, x_label,
        lambda v: f"{10 ** v:.3g}",
    )
