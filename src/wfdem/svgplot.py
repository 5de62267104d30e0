"""Minimal deterministic SVG emitters for the pipeline artifacts.

Hand-rolled on purpose: the outputs are golden-diffed, so they must be
byte-identical across runs and platforms.  No timestamps, no generated ids,
fixed decimal formatting everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 640.0, 440.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 20.0, 36.0, 50.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _escape(text: str) -> str:
    """XML character data, as `xml.sax.saxutils.escape` writes it.

    Kept local: that module imports `urllib.request`, about 45 ms of start-up.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass
class Frame:
    """Maps data coordinates, floats or float arrays, into the fixed plot
    viewport; both spans must be positive (see `_data_span`)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def x(self, v: float) -> float:
        span = self.x_max - self.x_min
        return MARGIN_L + (v - self.x_min) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, v: float) -> float:
        span = self.y_max - self.y_min
        return HEIGHT - MARGIN_B - (v - self.y_min) / span \
            * (HEIGHT - MARGIN_T - MARGIN_B)


def _tick_tol(hi: float) -> float:
    """Roundoff allowance of a span ending at hi."""
    return 1e-12 * max(1.0, abs(hi))


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """At most n + 1 round ticks in [lo, hi]; [lo] for a degenerate span.

    The walk stops a tolerance past hi.  A step of at most twice that
    tolerance could overrun n steps, or fail to advance the value at all
    on a span of a few ulps, so such a span is treated as degenerate.
    """
    span = hi - lo
    tol = _tick_tol(hi)
    raw = span / n
    if not (2.0 * tol < raw < math.inf and math.isfinite(hi + tol)):
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + tol:
        out.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return out


def _axes(frame: Frame, title: str, xlabel: str, ylabel: str) -> list[str]:
    el = [
        f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" '
        f'width="{_fmt(WIDTH - MARGIN_L - MARGIN_R)}" '
        f'height="{_fmt(HEIGHT - MARGIN_T - MARGIN_B)}" '
        'fill="none" stroke="#404040" stroke-width="1"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="22" text-anchor="middle" '
        f'font-size="14">{_escape(title)}</text>',
        f'<text x="{_fmt(WIDTH / 2)}" y="{_fmt(HEIGHT - 10)}" '
        f'text-anchor="middle" font-size="12">{_escape(xlabel)}</text>',
        f'<text x="16" y="{_fmt(HEIGHT / 2)}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {_fmt(HEIGHT / 2)})">'
        f'{_escape(ylabel)}</text>',
    ]
    for v in _ticks(frame.x_min, frame.x_max):
        px = frame.x(v)
        el.append(f'<line x1="{_fmt(px)}" y1="{_fmt(HEIGHT - MARGIN_B)}" '
                  f'x2="{_fmt(px)}" y2="{_fmt(HEIGHT - MARGIN_B + 5)}" '
                  'stroke="#404040" stroke-width="1"/>')
        el.append(f'<text x="{_fmt(px)}" y="{_fmt(HEIGHT - MARGIN_B + 18)}" '
                  f'text-anchor="middle" font-size="10">{v:.4g}</text>')
    for v in _ticks(frame.y_min, frame.y_max):
        py = frame.y(v)
        el.append(f'<line x1="{_fmt(MARGIN_L - 5)}" y1="{_fmt(py)}" '
                  f'x2="{_fmt(MARGIN_L)}" y2="{_fmt(py)}" '
                  'stroke="#404040" stroke-width="1"/>')
        el.append(f'<text x="{_fmt(MARGIN_L - 8)}" y="{_fmt(py + 3)}" '
                  f'text-anchor="end" font-size="10">{v:.4g}</text>')
    return el


def _document(elements: list[str]) -> str:
    head = ('<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
            f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">')
    body = "\n".join(elements)
    return f"{head}\n{body}\n</svg>\n"


def _legend(entries: list[tuple[str, str, str]]) -> list[str]:
    # entries: (label, color, marker) with marker in {dot, cross, line}
    el = []
    y = MARGIN_T + 14.0
    x = WIDTH - MARGIN_R - 150.0
    for label, color, marker in entries:
        if marker == "dot":
            el.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y - 3)}" r="4" '
                      f'fill="{color}"/>')
        elif marker == "cross":
            el.append(f'<path d="M {_fmt(x - 4)} {_fmt(y - 7)} L {_fmt(x + 4)} '
                      f'{_fmt(y + 1)} M {_fmt(x - 4)} {_fmt(y + 1)} '
                      f'L {_fmt(x + 4)} {_fmt(y - 7)}" stroke="{color}" '
                      'stroke-width="2" fill="none"/>')
        else:
            el.append(f'<line x1="{_fmt(x - 6)}" y1="{_fmt(y - 3)}" '
                      f'x2="{_fmt(x + 6)}" y2="{_fmt(y - 3)}" '
                      f'stroke="{color}" stroke-width="2"/>')
        el.append(f'<text x="{_fmt(x + 10)}" y="{_fmt(y)}" '
                  f'font-size="11">{_escape(label)}</text>')
        y += 16.0
    return el


def _data_span(vals: list[float]) -> float:
    """max - min, or a tenth of the magnitude for a span within roundoff."""
    lo, hi = min(vals), max(vals)
    if hi - lo > _tick_tol(hi):
        return hi - lo
    return max(abs(hi), 1.0) * 0.1


def scatter_svg(path: str | Path, title: str, xlabel: str, ylabel: str,
                dot_series: list[tuple[str, list[tuple[float, float]], str]],
                cross_series: list[tuple[str, list[tuple[float, float]], str]],
                ) -> None:
    """Scatter with filled dots and cross markers, one color per series."""
    xs = [p[0] for _, pts, _ in dot_series + cross_series for p in pts]
    ys = [p[1] for _, pts, _ in dot_series + cross_series for p in pts]
    if not xs:
        xs, ys = [0.0], [0.0]
    dx, dy = _data_span(xs), _data_span(ys)
    frame = Frame(min(xs) - 0.08 * dx, max(xs) + 0.08 * dx,
                  min(ys) - 0.08 * dy, max(ys) + 0.08 * dy)
    el = _axes(frame, title, xlabel, ylabel)
    legend = []
    for label, pts, color in dot_series:
        legend.append((label, color, "dot"))
        for x, y in pts:
            el.append(f'<circle cx="{_fmt(frame.x(x))}" '
                      f'cy="{_fmt(frame.y(y))}" r="4" fill="{color}" '
                      'fill-opacity="0.75"/>')
    for label, pts, color in cross_series:
        legend.append((label, color, "cross"))
        for x, y in pts:
            px, py = frame.x(x), frame.y(y)
            el.append(f'<path d="M {_fmt(px - 5)} {_fmt(py - 5)} '
                      f'L {_fmt(px + 5)} {_fmt(py + 5)} '
                      f'M {_fmt(px - 5)} {_fmt(py + 5)} '
                      f'L {_fmt(px + 5)} {_fmt(py - 5)}" '
                      f'stroke="{color}" stroke-width="2.5" fill="none"/>')
    el += _legend(legend)
    Path(path).write_text(_document(el))


def bars_svg(path: str | Path, title: str, xlabel: str, ylabel: str,
             categories: list[str], series: list[tuple[str, list[float]]],
             ) -> None:
    """Grouped bars of values >= 0: one category per x slot, one bar per
    series inside, each rising from 0 at the bottom edge."""
    n_cat = len(categories)
    n_ser = max(len(series), 1)
    top = max((max(vals) for _, vals in series if vals), default=1.0)
    frame = Frame(0.0, float(max(n_cat, 1)), 0.0,
                  _data_span([0.0, top]) * 1.08)
    el = _axes(frame, title, xlabel, ylabel)
    slot = (WIDTH - MARGIN_L - MARGIN_R) / max(n_cat, 1)
    bar_w = slot * 0.8 / n_ser
    legend = []
    for s, (label, vals) in enumerate(series):
        color = PALETTE[s % len(PALETTE)]
        legend.append((label, color, "line"))
        x0 = MARGIN_L + np.arange(len(vals)) * slot + slot * 0.1 + s * bar_w
        y0 = frame.y(np.asarray(vals, dtype=float))
        h = (HEIGHT - MARGIN_B) - y0
        bar = f'<rect x="%.2f" y="%.2f" width="{_fmt(bar_w)}" ' \
            f'height="%.2f" fill="{color}"/>'
        el += [bar % xyh for xyh in zip(x0.tolist(), y0.tolist(), h.tolist())]
    step = max(1, n_cat // 16)
    for k in range(0, n_cat, step):
        px = MARGIN_L + (k + 0.5) * slot
        el.append(f'<text x="{_fmt(px)}" y="{_fmt(HEIGHT - MARGIN_B + 18)}" '
                  'text-anchor="middle" font-size="9">'
                  f'{_escape(categories[k])}</text>')
    el += _legend(legend)
    Path(path).write_text(_document(el))


def _lines_frame(coords: list[tuple[np.ndarray, np.ndarray]]) -> Frame:
    """The frame of `lines_svg`: x from its least value over one data span,
    y padded by 5% of its span on both sides.  Its flat lists of every
    value are freed before the points are formatted."""
    xs = [x for sx, _ in coords for x in sx.tolist()]
    ys = [y for _, sy in coords for y in sy.tolist()]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    dy = _data_span(ys)
    return Frame(min(xs), min(xs) + _data_span(xs),
                 min(ys) - 0.05 * dy, max(ys) + 0.05 * dy)


def lines_svg(path: str | Path, title: str, xlabel: str, ylabel: str,
              series: list[tuple[str, list[float], list[float], str, bool]],
              ) -> None:
    """Overlaid polylines; the last tuple flag selects a dashed stroke.

    A series' x and y may be lists or float arrays."""
    coords = [(np.asarray(sx, dtype=float), np.asarray(sy, dtype=float))
              for _, sx, sy, _, _ in series]
    frame = _lines_frame(coords)
    el = _axes(frame, title, xlabel, ylabel)
    legend = []
    for (label, _, _, color, dashed), (sx, sy) in zip(series, coords):
        legend.append((label, color, "line"))
        pts = " ".join(["%.2f,%.2f" % xy for xy in zip(
            frame.x(sx).tolist(), frame.y(sy).tolist())])
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        el.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                  f'stroke-width="1.6"{dash}/>')
    el += _legend(legend)
    Path(path).write_text(_document(el))
