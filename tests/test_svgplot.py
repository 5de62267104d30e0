"""SVG emitters: tick placement and well-formed text."""

import xml.etree.ElementTree as ET

from helpers import run_python_bounded
from wfdem.svgplot import _ticks, bars_svg

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
