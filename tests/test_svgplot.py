"""SVG emitters: tick placement and well-formed text."""

import math
import xml.etree.ElementTree as ET

import numpy as np
from hypothesis import example, given, strategies as st

from helpers import run_python_bounded
from oracles import bars_svg_by_point, lines_svg_by_point
from wfdem.svgplot import (HEIGHT, MARGIN_B, MARGIN_T, PALETTE, _ticks,
                          bars_svg, lines_svg, scatter_svg)

# Runs in a child capped in memory and time: a step that cannot advance
# the value would make `_ticks` append ticks until memory runs out.
TICKS_PROPERTY = """
import math
from hypothesis import example, given, settings, strategies as st
from wfdem.svgplot import _ticks

finite = st.floats(allow_nan=False, allow_infinity=False)


def ulps_above(x, k):
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


def check(lo, hi, n):
    ticks = _ticks(lo, hi, n)
    assert len(ticks) <= n + 1, (lo, hi, n, len(ticks))


@settings(max_examples=400, deadline=None, database=None)
@given(finite, finite, st.integers(1, 10))
@example(-1.7976931348623157e308, 1.7976931348623157e308, 5)
@example(1e308, 1.7976931348623157e308, 5)
@example(0.0, 5e-324, 5)
@example(-5e-12, 5e-12, 5)
def any_span(a, b, n):
    if a != b:
        check(min(a, b), max(a, b), n)


@settings(max_examples=400, deadline=None, database=None)
@given(finite, st.integers(1, 4), st.integers(1, 10))
@example(58.64, 1, 5)
@example(58.64, 2, 5)
def few_ulp_span(lo, k, n):
    hi = ulps_above(lo, k)
    if math.isfinite(hi):
        check(lo, hi, n)


any_span()
few_ulp_span()
"""


def test_ticks_are_bounded_on_any_finite_span():
    proc = run_python_bounded(["-c", TICKS_PROPERTY], timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_ticks_keep_round_steps():
    assert _ticks(0.0, 1.0) == [0.0, 0.2, 0.4, 0.6000000000000001,
                                0.8, 1.0]
    assert _ticks(-3.0, 7.0) == [-2.0, 0.0, 2.0, 4.0, 6.0]
    assert _ticks(2.0, 2.0) == [2.0]


def test_text_is_xml_escaped(tmp_path):
    path = tmp_path / "bars.svg"
    bars_svg(path, "a < b & c", "x > 0", "y & z", ["wt<1&2"],
             [("series <1>", [1.0])])
    texts = [el.text for el in ET.parse(path).getroot().iter()
             if el.tag.endswith("text")]
    for text in ("a < b & c", "x > 0", "y & z", "wt<1&2", "series <1>"):
        assert text in texts


def test_scatter_draws_an_ulp_wide_span_as_a_point(tmp_path):
    # coincident modes and a centre one ulp lower in Im, as on a farm of
    # identical WTs on a zero-impedance network
    im = 22.360679774997898
    path = tmp_path / "scatter.svg"
    scatter_svg(path, "modes", "Re", "Im",
                [("cluster 0", [(-30.0, im)] * 3, "#1f77b4")],
                [("centres", [(-30.0, math.nextafter(im, 0.0))], "#000000")])
    root = ET.parse(path).getroot()
    dots = [float(el.get("cy")) for el in root.iter()
            if el.tag.endswith("circle") and el.get("fill-opacity")]
    cross = [el.get("d").split() for el in root.iter()
             if el.tag.endswith("path") and el.get("stroke-width") == "2.5"]
    middle = (MARGIN_T + HEIGHT - MARGIN_B) / 2
    centre_y = [(float(d[2]) + float(d[5])) / 2 for d in cross]
    assert len(dots) == 3 and len(centre_y) == 1
    for y in dots + centre_y:
        assert abs(y - middle) < 0.5


def test_lines_draw_an_ulp_wide_span_as_a_flat_line(tmp_path):
    path = tmp_path / "lines.svg"
    lines_svg(path, "response", "t", "p",
              [("p", [0.0, 1.0], [1.0, math.nextafter(1.0, 2.0)],
                "#1f77b4", False)])
    root = ET.parse(path).getroot()
    (line,) = [el for el in root.iter() if el.tag.endswith("polyline")]
    ys = [float(pt.split(",")[1]) for pt in line.get("points").split()]
    middle = (MARGIN_T + HEIGHT - MARGIN_B) / 2
    assert len(ys) == 2
    for y in ys:
        assert abs(y - middle) < 0.5


def test_all_zero_bars_sit_on_the_baseline(tmp_path):
    path = tmp_path / "bars.svg"
    bars_svg(path, "features", "WT", "|F|", ["a", "b"],
             [("s0", [0.0, 0.0]), ("s1", [0.0, 0.0])])
    bars = [el for el in ET.parse(path).getroot().iter()
            if el.tag.endswith("rect") and el.get("fill") in PALETTE]
    assert len(bars) == 4
    for bar in bars:
        assert float(bar.get("height")) == 0.0
        assert float(bar.get("y")) == HEIGHT - MARGIN_B


def test_degenerate_x_spans_still_draw(tmp_path):
    # no categories, and a single time sample
    bars_svg(tmp_path / "bars.svg", "features", "WT", "|F|", [], [])
    lines_svg(tmp_path / "lines.svg", "response", "t", "p",
              [("p", [0.5], [1.0], "#1f77b4", False)])
    for name in ("bars.svg", "lines.svg"):
        ET.parse(tmp_path / name)
    (line,) = [el for el in ET.parse(tmp_path / "lines.svg").getroot().iter()
               if el.tag.endswith("polyline")]
    x, y = map(float, line.get("points").split(","))
    assert 0.0 < x < 640.0 and MARGIN_T < y < HEIGHT - MARGIN_B


# plain floats, signed zeros and pixel positions that end in 5 at the
# third decimal, where "%.2f" rounds by the binary value
VALUE = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(
    [-0.0, 0.0, 1.005, 2.675, 0.125, 76.875, 1e-300]))


def same_svg_bytes(tmp_path, draw, oracle, *args):
    draw(tmp_path / "new.svg", *args)
    oracle(tmp_path / "old.svg", *args)
    return (tmp_path / "new.svg").read_bytes() \
        == (tmp_path / "old.svg").read_bytes()


@given(st.lists(st.lists(st.tuples(VALUE, VALUE), max_size=40), max_size=3))
# x spans 0 to 550, so each x lands on pixel 70 + x
@example([[(0.0, 0.0), (1.005, -0.0), (2.675, 1.0), (550.0, 2.0)]])
# x spans 2.2, so pixel 70 + 0.275 k lands within a few ulps of a
# rounding boundary at every odd k: one ulp off in the mapping shows
@example([[(k * 0.0011, (k % 7) * 0.25) for k in range(2001)]])
@example([[(-0.0, -0.0), (0.0, 0.0)], []])
@example([])
def test_lines_keep_the_per_point_bytes(tmp_path_factory, points):
    tmp_path = tmp_path_factory.mktemp("lines")
    series = [(f"s{k}", [x for x, _ in pts], [y for _, y in pts],
               PALETTE[k], k % 2 == 1) for k, pts in enumerate(points)]
    arrays = [(label, np.array(sx, dtype=float), np.array(sy, dtype=float),
               color, dashed) for label, sx, sy, color, dashed in series]
    for given_series in (series, arrays):
        assert same_svg_bytes(tmp_path, lines_svg, lines_svg_by_point,
                              "response", "t", "p", given_series)


@given(st.integers(0, 20).flatmap(lambda n: st.tuples(
           st.just(n), st.lists(st.lists(
               st.one_of(st.floats(0.0, 1e6), st.sampled_from(
                   [-0.0, 0.0, 1.005, 2.675, 0.125])),
               min_size=n, max_size=n), max_size=4))))
# eight slots of 68.75 px put the first bar's left edge at 76.875
@example((8, [[1.0, 0.5, 0.25, -0.0, 0.0, 2.675, 1.005, 0.125]]))
# a 108-unit span over 354 px: bar k rises 0.005 k px, a few ulps from a
# rounding boundary at every odd k
@example((100, [[100.0] + [k * 0.005 * 108.0 / 354.0
                            for k in range(1, 100)]]))
@example((3, []))
@example((0, [[], []]))
def test_bars_keep_the_per_bar_bytes(tmp_path_factory, shape):
    tmp_path = tmp_path_factory.mktemp("bars")
    n_cat, values = shape
    categories = [f"wt{k:02d}" for k in range(n_cat)]
    series = [(f"cluster {c}", vals) for c, vals in enumerate(values)]
    assert same_svg_bytes(tmp_path, bars_svg, bars_svg_by_point,
                          "features", "WT", "|F|", categories, series)
