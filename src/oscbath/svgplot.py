"""Minimal self-contained SVG line plots, no plotting dependencies.

Produces a fixed-size 2D plot with axes, tick labels, one polyline per
curve and a legend. Output is deterministic text, suitable for regression
comparison byte by byte.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot"]

_WIDTH = 760
_HEIGHT = 480
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 150
_MARGIN_TOP = 44
_MARGIN_BOTTOM = 56

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi] with a 1-2-5 step."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(target, 2)
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * power
        if span / step <= target + 1:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
        value += step
    return ticks


def _fmt_tick(v: float) -> str:
    text = f"{v:.6g}"
    return "0" if text in ("-0", "0.0", "-0.0") else text


def line_plot(curves, xlabel: str, ylabel: str, title: str) -> str:
    """Render curves = [(label, xs, ys), ...] to an SVG document string.

    ``xs`` and ``ys`` are equal-length sequences or 1-D arrays of floats.
    Every x must be finite; a non-finite y drops that point from its
    polyline. Pixel coordinates are computed for whole curves at once and
    printed with two decimals. Raises ``ValueError`` for no curves, unequal
    lengths, a non-finite x or no finite y at all.
    """
    if not curves:
        raise ValueError("need at least one curve")
    columns = []
    for label, xs, ys in curves:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError(
                f"curve {label!r}: xs and ys must be 1-D and the same length "
                f"(got shapes {xs.shape} and {ys.shape})"
            )
        columns.append((label, xs, ys))
    xs_all = np.concatenate([xs for _, xs, _ in columns])
    if not np.isfinite(xs_all).all():
        raise ValueError("x values must be finite")
    ys_all = np.concatenate([ys for _, _, ys in columns])
    ys_all = ys_all[np.isfinite(ys_all)]
    if not ys_all.size:
        raise ValueError("curves contain no finite data")
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if y_hi - y_lo < 1e-12:
        y_lo -= 0.5
        y_hi += 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    px0, px1 = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    py0, py1 = _HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP

    # elementwise on arrays: the same IEEE operations as on one float
    def sx(x):
        return px0 + (x - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(y):
        return py0 + (y - y_lo) / (y_hi - y_lo) * (py1 - py0)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{(px0 + px1) / 2:.1f}" y="24" font-family="sans-serif" '
        f'font-size="15" text-anchor="middle">{title}</text>'
    )

    for xv in _nice_ticks(x_lo, x_hi):
        px = sx(xv)
        out.append(
            f'<line x1="{px:.2f}" y1="{py0:.2f}" x2="{px:.2f}" '
            f'y2="{py0 + 5:.2f}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{py0 + 20:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle">{_fmt_tick(xv)}</text>'
        )
    for yv in _nice_ticks(y_lo, y_hi):
        py = sy(yv)
        out.append(
            f'<line x1="{px0 - 5:.2f}" y1="{py:.2f}" x2="{px0:.2f}" '
            f'y2="{py:.2f}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{px0:.2f}" y1="{py:.2f}" x2="{px1:.2f}" y2="{py:.2f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{px0 - 9:.2f}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end">{_fmt_tick(yv)}</text>'
        )

    # axes on top of the grid lines
    out.append(
        f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" '
        f'stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" '
        f'stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<text x="{(px0 + px1) / 2:.1f}" y="{_HEIGHT - 14}" '
        f'font-family="sans-serif" font-size="14" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="20" y="{(py0 + py1) / 2:.1f}" font-family="sans-serif" '
        f'font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 20 {(py0 + py1) / 2:.1f})">{ylabel}</text>'
    )

    for idx, (label, xs, ys) in enumerate(columns):
        color = _PALETTE[idx % len(_PALETTE)]
        keep = np.isfinite(ys)
        coords = np.column_stack((sx(xs[keep]), sy(ys[keep])))
        points = " ".join(["%.2f,%.2f"] * len(coords)) % tuple(coords.ravel().tolist())
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
            f'points="{points}"/>'
        )
        ly = _MARGIN_TOP + 16 + 20 * idx
        lx = px1 + 12
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        out.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
