"""Study output writers: CSV tables, JSON summaries, and SVG log-log plots.

Everything here is deterministic text generation: identical inputs produce
byte-identical files, so reruns of a study can be diffed directly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .experiments import RateTable

__all__ = [
    "write_rate_csv",
    "write_series_csv",
    "write_summary_json",
    "write_loglog_svg",
]


def write_rate_csv(path, table: RateTable) -> None:
    # a bool formats as 1 or 0 under .17g
    write_series_csv(path, ["epsilon", "error", "included_in_fit"],
                     [table.epsilons, table.errors, table.included])


def write_series_csv(path, header: list[str], columns) -> None:
    columns = [list(c) for c in columns]
    if any(len(c) != len(columns[0]) for c in columns):
        raise ValueError("columns must have equal length")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def write_summary_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ticks(lo: float, hi: float):
    # decade ticks covering [lo, hi] in log10 coordinates
    first = math.floor(lo)
    last = math.ceil(hi)
    return list(range(first, last + 1))


def write_loglog_svg(path, table: RateTable, title: str = "") -> None:
    """Minimal hand-rolled log-log scatter with the fitted power law.

    No plotting dependency: the SVG is assembled directly so output bytes
    stay reproducible across environments.
    """
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 40, 50
    xs = [math.log10(e) for e in table.epsilons]
    ys = [math.log10(v) for v in table.errors]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = 0.05 * max(x_hi - x_lo, 1e-9)
    y_pad = 0.05 * max(y_hi - y_lo, 1e-9)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        f'fill="none" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            parts.append(
                f'<line x1="{px(t):.2f}" y1="{height - mb}" x2="{px(t):.2f}" '
                f'y2="{height - mb + 5}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{px(t):.2f}" y="{height - mb + 20}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="12">1e{t}</text>'
            )
    for t in _ticks(y_lo, y_hi):
        if y_lo <= t <= y_hi:
            parts.append(
                f'<line x1="{ml - 5}" y1="{py(t):.2f}" x2="{ml}" y2="{py(t):.2f}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{ml - 8}" y="{py(t) + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="12">1e{t}</text>'
            )
    # fitted line in natural-log coordinates: ln e = slope ln eps + intercept
    ln10 = math.log(10.0)
    y_fit_lo = (table.fitted_slope * (x_lo * ln10) + table.fitted_intercept) / ln10
    y_fit_hi = (table.fitted_slope * (x_hi * ln10) + table.fitted_intercept) / ln10
    parts.append(
        f'<line x1="{px(x_lo):.2f}" y1="{py(y_fit_lo):.2f}" x2="{px(x_hi):.2f}" '
        f'y2="{py(y_fit_hi):.2f}" stroke="steelblue" stroke-width="1.5"/>'
    )
    for x, y, inc in zip(xs, ys, table.included):
        color = "black" if inc else "silver"
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" fill="{color}"/>')
    parts.append(
        f'<text x="{width - mr - 6}" y="{mt + 18}" text-anchor="end" '
        f'font-family="sans-serif" font-size="13">slope {table.fitted_slope:.3f}, '
        f'r2 {table.r_squared:.4f}</text>'
    )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">epsilon</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
