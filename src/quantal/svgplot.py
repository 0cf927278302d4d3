"""Figure generation as standalone SVG text.

Two figure kinds mirror the experiment write-up: an accuracy heatmap
over (training size x exception proportion) with the tolerance curve
1/ln N overlaid, and a single-column scatter with the two stitched
regression lines and a vertical bar marking the candidate break point.

SVG is built as plain text so tests can parse coordinates back out; the
root element carries data-* attributes describing the axis transform.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from xml.sax.saxutils import escape

from .sweep import require_one_kind
from .tp import AnalysisReport, tp_threshold

WIDTH, HEIGHT = 720, 480  # pixels, both figure kinds
# integer-N curve sampling keeps the N=16 landmark exact on small spans
MAX_INTEGER_SAMPLING_SPAN = 4096
CURVE_SAMPLES = 1024


@dataclass(frozen=True)
class Frame:
    """Data-to-pixel transform for one plot area."""

    x0: float
    x1: float
    y0: float
    y1: float
    left: float
    top: float
    width: float
    height: float

    def px(self, x: float) -> float:
        return self.left + self.width * (x - self.x0) / (self.x1 - self.x0)

    def py(self, y: float) -> float:
        # SVG y grows downward; data y grows upward
        return self.top + self.height * (self.y1 - y) / (self.y1 - self.y0)

    def contains_y(self, y: float) -> bool:
        return self.y0 <= y <= self.y1

    def root_attrs(self) -> str:
        return (
            f'data-x0="{self.x0!r}" data-x1="{self.x1!r}" '
            f'data-y0="{self.y0!r}" data-y1="{self.y1!r}" '
            f'data-left="{self.left!r}" data-top="{self.top!r}" '
            f'data-width="{self.width!r}" data-height="{self.height!r}"'
        )


def shade(accuracy: float) -> str:
    """Gray fill for an accuracy: 0.5 or below is black, 1.0 is white."""
    level = min(max((accuracy - 0.5) / 0.5, 0.0), 1.0)
    g = round(255 * level)
    return f"#{g:02x}{g:02x}{g:02x}"


def _min_gap(values) -> float:
    distinct = sorted(set(values))
    if len(distinct) < 2:
        return abs(distinct[0]) * 0.2 or 1.0
    return min(b - a for a, b in zip(distinct, distinct[1:]))


def _frame(x0, x1, y0, y1) -> Frame:
    return Frame(x0, x1, y0, y1, left=60, top=40, width=WIDTH - 80, height=HEIGHT - 80)


def _svg_header(frame, title):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" {frame.root_attrs()}>',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect class="frame" x="{frame.left}" y="{frame.top}" width="{frame.width}" '
        f'height="{frame.height}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title)}</text>'
        )
    return parts


def _axis_labels(frame, xs, ys):
    parts = []
    for x in xs:
        parts.append(
            f'<text class="x-tick" x="{frame.px(x):.2f}" y="{frame.top + frame.height + 16:.2f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">{x:g}</text>'
        )
    for y in ys:
        parts.append(
            f'<text class="y-tick" x="{frame.left - 6:.2f}" y="{frame.py(y) + 3:.2f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="10">{y:g}</text>'
        )
    return parts


def tolerance_curve_path(frame: Frame) -> str:
    """SVG path for y = 1/ln N across the frame's x span.

    Integer N values are sampled on small spans so landmark points sit
    exactly on the curve; out-of-frame stretches start a new subpath.
    """
    lo = max(2.0, frame.x0)
    if frame.x1 - lo <= MAX_INTEGER_SAMPLING_SPAN:
        ns = range(math.ceil(lo), math.floor(frame.x1) + 1)
    else:
        step = (frame.x1 - lo) / (CURVE_SAMPLES - 1)
        ns = [lo + i * step for i in range(CURVE_SAMPLES)]
    pieces = []
    pen_down = False
    for n in ns:
        y = tp_threshold(n).max_exception_proportion
        if not frame.contains_y(y):
            pen_down = False
            continue
        cmd = "L" if pen_down else "M"
        pieces.append(f"{cmd}{frame.px(n):.3f},{frame.py(y):.3f}")
        pen_down = True
    return " ".join(pieces)


def heatmap_svg(rows, epochs: int, title: str | None = None) -> str:
    """Shaded accuracy cells over (n_train, exception_prop) at one epoch
    setting, with the tolerance curve 1/ln N overlaid.  A (size,
    proportion) with several rows (other seeds, say) is one cell, shaded
    by the mean of their mean accuracies.  The frame pads the data by one
    grid step on each side.  Rows of different experiments are refused."""
    rows = [row for row in rows if row["epochs"] == epochs]
    if not rows:
        raise ValueError(f"no rows at epochs={epochs}")
    require_one_kind(rows, f"epochs={epochs}")
    accs = {}
    for row in rows:
        accs.setdefault((row["n_train"], row["exception_prop"]), []).append(row["mean_accuracy"])
    cells = [(n_train, prop, statistics.fmean(a)) for (n_train, prop), a in accs.items()]
    xs = sorted({c[0] for c in cells})
    ys = sorted({c[1] for c in cells})
    gap_x = _min_gap(xs)
    gap_y = _min_gap(ys)
    frame = _frame(xs[0] - gap_x, xs[-1] + gap_x, ys[0] - gap_y, ys[-1] + gap_y)
    parts = _svg_header(frame, title)
    w = frame.width * 0.9 * gap_x / (frame.x1 - frame.x0)
    h = frame.height * 0.9 * gap_y / (frame.y1 - frame.y0)
    for n_train, prop, acc in sorted(cells):
        cx, cy = frame.px(n_train), frame.py(prop)
        parts.append(
            f'<rect class="cell" x="{cx - w / 2:.3f}" y="{cy - h / 2:.3f}" '
            f'width="{w:.3f}" height="{h:.3f}" fill="{shade(acc)}" stroke="#999" '
            f'stroke-width="0.5" data-n="{n_train}" data-prop="{prop!r}" data-acc="{acc!r}"/>'
        )
    path = tolerance_curve_path(frame)
    if path:
        parts.append(
            f'<path class="tp-curve" d="{path}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
    parts.extend(_axis_labels(frame, xs, ys))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _clip_segment(frame, fit, x_lo, x_hi):
    slope, intercept = fit
    p0 = (frame.px(x_lo), frame.py(slope * x_lo + intercept))
    p1 = (frame.px(x_hi), frame.py(slope * x_hi + intercept))
    return p0, p1


def column_svg(points, report: AnalysisReport, title: str | None = None) -> str:
    """Scatter of (proportion, accuracy) with stitched regression overlay.

    report is tp.analyze_column's analysis of the points: two fitted
    lines, drawn joined by a vertical bar at the break proportion.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("no points to plot")
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    pad_x = (max(xs) - min(xs)) * 0.08 or 0.05
    y_lo = min(0.4, min(ys) - 0.05)
    y_hi = max(1.0, max(ys) + 0.05)
    frame = _frame(min(xs) - pad_x, max(xs) + pad_x, y_lo, y_hi)
    parts = _svg_header(frame, title)
    reg = report.regression
    if reg is not None:
        (lx0, ly0), (lx1, ly1) = _clip_segment(frame, reg.left_fit, frame.x0, reg.break_x)
        (rx0, ry0), (rx1, ry1) = _clip_segment(frame, reg.right_fit, reg.break_x, frame.x1)
        parts.append(
            f'<line class="fit fit-left" x1="{lx0:.3f}" y1="{ly0:.3f}" '
            f'x2="{lx1:.3f}" y2="{ly1:.3f}" stroke="#444" stroke-width="1.5"/>'
        )
        parts.append(
            f'<line class="fit fit-right" x1="{rx0:.3f}" y1="{ry0:.3f}" '
            f'x2="{rx1:.3f}" y2="{ry1:.3f}" stroke="#444" stroke-width="1.5"/>'
        )
        bx = frame.px(reg.break_x)
        parts.append(
            f'<line class="stitch" x1="{bx:.3f}" y1="{ly1:.3f}" x2="{bx:.3f}" y2="{ry0:.3f}" '
            f'stroke="#c00" stroke-width="2" data-break-x="{reg.break_x!r}"/>'
        )
    for x, y in pts:
        parts.append(
            f'<circle class="point" cx="{frame.px(x):.3f}" cy="{frame.py(y):.3f}" '
            f'r="4" fill="black"/>'
        )
    label = report.classification
    if report.gradience is not None and not report.gradience.degenerate:
        label += f", rho={report.gradience.rho:.3f}"
    if reg is not None:
        label += f", step={reg.step_coefficient:.3f} (p={reg.p_value:.3g})"
    parts.append(
        f'<text class="caption" x="{WIDTH / 2}" y="{HEIGHT - 6}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{escape(label)}</text>'
    )
    parts.extend(_axis_labels(frame, sorted(set(xs)), []))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
