"""`svgplot.line_plot`: pinned bytes, input checks and well-formed output.

tests/golden/line_plot.svg holds the plot of ``_fixture_curves()`` written
by the per-point formatter that the array-built polylines replaced; the
fixture curves include NaN and infinite y values, a constant curve and
seven curves, so the six-colour palette wraps. Rewrite it only when a
change of the plot is intended.
"""

import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from oscbath.svgplot import line_plot

GOLDEN_SVG = Path(__file__).with_name("golden") / "line_plot.svg"

_LABELS = dict(xlabel="t", ylabel="discord", title="fixture: discord vs t")


def _fixture_curves():
    """Seven fixed curves with different lengths and x ranges; curve 2 has
    NaN points, curve 3 +-inf points and curve 5 is constant."""
    curves = []
    for k in range(7):
        n = 40 + 7 * k
        xs = [0.25 * k + 10.0 * i / (n - 1) for i in range(n)]
        if k == 5:
            ys = [0.3] * n
        else:
            ys = [math.exp(-0.3 * x) * math.cos((k + 1) * x) + 0.1 * k for x in xs]
        if k == 2:
            for i in (0, 5, 6, 30):
                ys[i] = math.nan
        if k == 3:
            ys[3] = math.inf
            ys[10] = -math.inf
            ys[-1] = math.nan
        curves.append((f"k={k}", xs, ys))
    return curves


def _polylines(svg):
    root = ET.fromstring(svg)
    return [el for el in root.iter("{http://www.w3.org/2000/svg}polyline")]


def test_lists_match_golden_bytes():
    assert line_plot(_fixture_curves(), **_LABELS) == GOLDEN_SVG.read_text()


def test_arrays_match_golden_bytes():
    curves = [(label, np.array(xs), np.array(ys))
              for label, xs, ys in _fixture_curves()]
    assert line_plot(curves, **_LABELS) == GOLDEN_SVG.read_text()


def test_output_parses_as_xml_with_one_polyline_per_curve():
    lines = _polylines(line_plot(_fixture_curves(), **_LABELS))
    assert len(lines) == 7
    assert lines[0].get("stroke") == lines[6].get("stroke")  # palette wraps


def test_non_finite_y_dropped_from_polyline():
    curves = _fixture_curves()
    lines = _polylines(line_plot(curves, **_LABELS))
    for (_, xs, ys), line in zip(curves, lines):
        points = line.get("points").split(" ")
        assert len(points) == sum(math.isfinite(y) for y in ys)
        assert all("nan" not in p and "inf" not in p for p in points)


def test_curve_with_no_finite_y_gives_empty_polyline():
    curves = [("a", [0.0, 1.0], [0.0, 1.0]), ("b", [0.0, 1.0], [math.nan, math.inf])]
    lines = _polylines(line_plot(curves, **_LABELS))
    assert lines[1].get("points") == ""


def test_no_curves_raises():
    with pytest.raises(ValueError, match="at least one curve"):
        line_plot([], **_LABELS)


@pytest.mark.parametrize("ys", [[math.nan, math.nan], [math.inf, -math.inf], []])
def test_no_finite_data_raises(ys):
    xs = [0.0, 1.0][:len(ys)]
    with pytest.raises(ValueError, match="no finite data"):
        line_plot([("a", xs, ys)], **_LABELS)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_x_raises(bad):
    curves = [("a", [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]),
              ("b", [0.0, bad, 2.0], [0.0, 1.0, 2.0])]
    with pytest.raises(ValueError, match="x values must be finite"):
        line_plot(curves, **_LABELS)


def test_length_mismatch_raises():
    with pytest.raises(ValueError, match="same length"):
        line_plot([("a", [0.0, 1.0, 2.0], [0.0, 1.0])], **_LABELS)
