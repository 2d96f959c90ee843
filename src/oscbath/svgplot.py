"""Minimal self-contained SVG line plots, no plotting dependencies.

Produces a fixed-size 2D plot with axes, tick labels, one polyline per
curve and a legend. Output is deterministic text, suitable for regression
comparison byte by byte. Polyline coordinates are formatted a whole plot
at a time, byte for byte as ``"%.2f"`` formats each.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import _rint_product

__all__ = ["line_plot"]

_WIDTH = 760
_HEIGHT = 480
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 150
_MARGIN_TOP = 44
_MARGIN_BOTTOM = 56

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


# "%.2f" text of a pixel coordinate v in (0, 1000) as one 8-byte word: the
# integer part right-aligned in bytes 0-3 and the point in byte 4 (a word
# of _INT_WORDS), two digits of hundredths in bytes 5-6 (_FRAC_WORDS) and
# the separator in byte 7, NUL where no character is.
def _digit_words():
    """(_INT_WORDS, _FRAC_WORDS): the words of the integer parts 0-1000,
    without leading zeros, and of the hundredths 0-99."""
    n = np.arange(1001)
    whole = np.zeros((1001, 8), np.uint8)
    whole[:, :4] = n[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    for place, scale in enumerate((1000, 100, 10)):  # no leading zeros
        whole[:scale, place] = 0
    whole[:, 4] = ord(".")
    frac = np.zeros((100, 8), np.uint8)
    frac[:, 5:7] = n[:100, None] // np.array([10, 1]) % 10 + ord("0")
    return whole.view(np.uint64).ravel(), frac.view(np.uint64).ravel()


_INT_WORDS, _FRAC_WORDS = _digit_words()
_COMMA, _SPACE = (np.frombuffer(sep.rjust(8, b"\0"), np.uint64)[0] for sep in (b",", b" "))


def _points(curves):
    """The polyline text "x,y x,y ..." of each (n, 2) array of pixel
    coordinates in ``curves``, each coordinate as ``"%.2f"`` formats it.

    Every coordinate must lie in (0, 1000), as every pixel of
    :func:`line_plot`'s plot box does. All curves are formatted in one pass:
    q = 100·v rounded half to even as the exact product is (the low part
    decides only a product that rounds onto a half), the rounding ``%``
    does, picks a word from each table.
    """
    coords = np.concatenate(curves)
    q = _rint_product(coords, np.full(coords.shape, 100.0)).astype(np.intp)
    words = np.take(_INT_WORDS, q // 100)
    words |= np.take(_FRAC_WORDS, q % 100)
    words[:, 0] |= _COMMA
    words[:, 1] |= _SPACE
    # the last y of a curve ends its line
    lengths = np.array([len(c) for c in curves])
    words.view(np.uint8)[np.cumsum(lengths)[lengths > 0] - 1, -1] = ord("\n")
    text = words.tobytes().translate(None, b"\0").decode("ascii")
    lines = iter(text.split("\n"))
    return [next(lines) if len(c) else "" for c in curves]


def _nice_ticks(lo: float, hi: float, axis: str, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi], hi > lo, with a 1-2-5 step;
    a tick within 1e-12 (hi - lo) of 0 is +0.0, which ``.6g`` prints as 0.

    Raises ``ValueError`` naming the axis if the step is too small to move
    a tick at the magnitude of its values.
    """
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
        if value + step == value:
            raise ValueError(f"{axis} range [{lo!r}, {hi!r}] is too narrow to plot "
                             f"at the magnitude of its values")
        value += step
    return ticks


def _axis_range(lo: float, hi: float, axis: str, margin: float) -> tuple[float, float]:
    """The plotted range of data in [lo, hi]: widened by 0.5 at each end if
    narrower than 1e-12, then by ``margin`` times its width at each end.

    Raises ``ValueError`` naming the axis if that range is not finite or
    has no width.
    """
    low, high = (lo - 0.5, hi + 0.5) if hi - lo < 1e-12 else (lo, hi)
    pad = margin * (high - low)
    low, high = low - pad, high + pad
    if not (math.isfinite(high - low) and high > low):
        raise ValueError(f"{axis} values in [{lo!r}, {hi!r}] cannot be plotted: "
                         f"the padded range is not finite or has no width")
    return low, high


def _escape(text) -> str:
    """``text`` as XML character data: ``&``, ``<`` and ``>`` as entities."""
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot(curves, xlabel: str, ylabel: str, title: str) -> str:
    """Render curves = [(label, xs, ys), ...] to an SVG document string.

    ``xs`` and ``ys`` are equal-length sequences or 1-D arrays of floats.
    Every x must be finite; a non-finite y drops that point from its
    polyline. An axis whose data span less than 1e-12 (all x equal, say a
    single point) is widened by 0.5 at each end; the y axis then gets 4% of
    its width at each end. Every kept point lies in that range, so its
    pixel coordinates lie in the plot box [72, 610] x [44, 424]. They are
    computed for whole curves at once and printed with exact hundredths, as
    ``"%.2f"`` prints them: 100·v rounded half to even from the exact
    product, every curve in one pass through small byte tables (see
    ``_points``). The title, the axis labels and the curve labels are
    XML-escaped (``&``, ``<``, ``>``).

    Raises ``ValueError`` for no curves, unequal lengths, a non-finite x or
    no finite y at all, and, naming the axis, for an axis range that is not
    finite or has no width after padding, or too narrow for its tick step
    to move at the magnitude of its values.
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
    x_lo, x_hi = _axis_range(float(xs_all.min()), float(xs_all.max()), "x", 0.0)
    y_lo, y_hi = _axis_range(float(ys_all.min()), float(ys_all.max()), "y", 0.04)

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
        f'font-size="15" text-anchor="middle">{_escape(title)}</text>'
    )

    for xv in _nice_ticks(x_lo, x_hi, "x"):
        px = sx(xv)
        out.append(
            f'<line x1="{px:.2f}" y1="{py0:.2f}" x2="{px:.2f}" '
            f'y2="{py0 + 5:.2f}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{py0 + 20:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle">{xv:.6g}</text>'
        )
    for yv in _nice_ticks(y_lo, y_hi, "y"):
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
            f'font-size="12" text-anchor="end">{yv:.6g}</text>'
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
        f'<text x="{(px0 + px1) / 2:.1f}" y="{_HEIGHT - 14}" font-family="sans-serif" '
        f'font-size="14" text-anchor="middle">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="20" y="{(py0 + py1) / 2:.1f}" font-family="sans-serif" '
        f'font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 20 {(py0 + py1) / 2:.1f})">{_escape(ylabel)}</text>'
    )

    def pixels(xs, ys):
        keep = np.isfinite(ys)
        return np.column_stack((sx(xs[keep]), sy(ys[keep])))

    polylines = _points([pixels(xs, ys) for _, xs, ys in columns])
    for idx, ((label, _, _), points) in enumerate(zip(columns, polylines)):
        color = _PALETTE[idx % len(_PALETTE)]
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
            f'font-size="12">{_escape(label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
