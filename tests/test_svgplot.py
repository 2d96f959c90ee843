"""`svgplot.line_plot`: pinned bytes, input checks and well-formed output.

tests/golden/line_plot.svg holds the plot of ``_fixture_curves()`` written
by the per-point formatter that the array-built polylines replaced; the
fixture curves include NaN and infinite y values, a constant curve and
seven curves, so the six-colour palette wraps. Rewrite it only when a
change of the plot is intended. The polylines of all 15 figure presets
and of seeded plots of extreme data are compared in-process with the
per-curve ``%`` template of ``helpers.template_points``, and each
coordinate's text with ``"%.2f"``.
"""

import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscbath import svgplot
from oscbath.svgplot import _points, line_plot
from oscbath.sweep import FIGURE_IDS, figure_preset, sweep_parameter
from helpers import template_points

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


def test_markup_in_labels_is_escaped():
    # the title, the axis labels and the curve labels are element text
    text = 'a<b & "c"'
    svg = line_plot([(text, [0.0, 1.0], [0.0, 1.0]), ("d>e", [0.0, 1.0], [1.0, 0.0])],
                    xlabel=text, ylabel=text, title=text)
    texts = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert texts.count(text) == 4 and "d>e" in texts
    assert "a&lt;b &amp; \"c\"" in svg


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


# Pixel coordinates whose "%.2f" text is easy to get wrong: exact ties m/8,
# the floats next to x.xx5, the smallest floats and the neighbours of 1000.
# All lie in (0, 1000), where line_plot puts every pixel.
_EIGHTHS = st.integers(1, 8 * 1000 - 1).map(lambda m: m / 8)
_NEAR_HALF = st.builds(lambda m, to: math.nextafter((m + 0.5) / 100, to),
                       st.integers(0, 99999), st.sampled_from([0.0, 1000.0, math.inf]))
_EDGES = st.sampled_from([5e-324, 1e-300, 0.005, 0.004999, math.nextafter(1000.0, 0.0),
                          999.995, 999.994999])
_COORDINATE = st.one_of(st.floats(0.0, 1000.0, exclude_min=True, exclude_max=True),
                        _EIGHTHS, _NEAR_HALF, _EDGES)


def _extreme_values(rng, n):
    """n floats at one of a few random magnitudes from 1e-300 to 1e300, all
    equal a quarter of the time."""
    if rng.random() < 0.25:
        return np.full(n, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
    return (rng.choice([-1.0, 0.0, 1.0]) * 10.0 ** rng.uniform(-300, 300)
            + rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300))


class TestPoints:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.lists(_COORDINATE, min_size=0, max_size=8).map(
        lambda vs: vs[:len(vs) // 2 * 2]), min_size=1, max_size=4))
    def test_each_coordinate_formats_as_percent(self, curves):
        curves = [np.array(c, dtype=float).reshape(-1, 2) for c in curves]
        got = _points(curves)
        assert got == template_points(curves)
        for curve, text in zip(curves, got):
            assert [p for p in text.split(" ") if p] == [
                f"{x:.2f},{y:.2f}" for x, y in curve.tolist()]

    def test_extreme_data_matches_template(self, monkeypatch):
        # line_plot maps every kept point into its plot box, so _points needs
        # no fallback: on magnitudes from 1e-300 to 1e300, non-finite ys and
        # constant curves it gives the bytes of the % template, or both
        # raise the same ValueError
        rng = np.random.default_rng(2027)
        plots = []
        for _ in range(1000):
            curves = []
            for k in range(rng.integers(1, 4)):
                n = int(rng.integers(1, 12))
                ys = _extreme_values(rng, n)
                ys[rng.random(n) < 0.15] = rng.choice([math.nan, math.inf, -math.inf])
                curves.append((str(k), _extreme_values(rng, n), ys))
            plots.append(curves)

        def outcomes():
            results = []
            for curves in plots:
                try:
                    results.append(line_plot(curves, **_LABELS))
                except ValueError as exc:
                    results.append(repr(exc))
            return results

        got = outcomes()
        monkeypatch.setattr(svgplot, "_points", template_points)
        assert got == outcomes()
        assert sum(text.startswith("<svg") for text in got) >= 750

    def test_presets_match_template(self, monkeypatch):
        plots = []
        for fid in FIGURE_IDS:
            preset = figure_preset(fid)
            curves = [(f"{o.value:g}", o.trajectory.times,
                       getattr(o.trajectory.report, preset.observable))
                      for o in sweep_parameter(preset.params, preset.sweep, preset.values,
                                               preset.grid)]
            plots.append((curves, dict(xlabel="t", ylabel=preset.observable, title=fid)))
        got = [line_plot(curves, **labels) for curves, labels in plots]
        monkeypatch.setattr(svgplot, "_points", template_points)
        assert got == [line_plot(curves, **labels) for curves, labels in plots]
        assert len(got) == 15


class TestDegenerateRanges:
    @pytest.mark.parametrize("xs,ys", [([2.0], [0.5]), ([3.0, 3.0, 3.0], [0.0, 1.0, 2.0])])
    def test_equal_x_values_padded(self, xs, ys):
        lines = _polylines(line_plot([("a", xs, ys)], **_LABELS))
        x_pixels = {p.split(",")[0] for p in lines[0].get("points").split(" ")}
        assert x_pixels == {"341.00"}  # the middle of the padded range

    @pytest.mark.parametrize("axis,xs,ys", [
        ("y", [0.0, 1.0], [1e308, -1e308]),
        ("y", [0.0, 1.0], [1.7e308, 1.7e308]),
        ("y", [0.0, 1.0], [1e17, 1e17]),  # +-0.5 cannot widen the range
        ("x", [-1e308, 1e308], [0.0, 1.0]),
        ("y", [0.0, 1.0], [4e15, 4e15]),  # ticks too fine to move
        ("y", [0.0, 1.0], [1e6, math.nextafter(1e6, 2e6)]),
    ])
    def test_unplottable_range_raises_naming_the_axis(self, axis, xs, ys):
        with pytest.raises(ValueError, match=f"^{axis} "):
            line_plot([("a", xs, ys)], **_LABELS)
