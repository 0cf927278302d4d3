"""SVG figures: element counts, shading map, coordinate back-transforms."""

import math
import re
import xml.etree.ElementTree as ET

import pytest

from quantal.svgplot import CURVE_SAMPLES, MAX_INTEGER_SAMPLING_SPAN, Frame, column_svg, heatmap_svg, shade
from quantal.tp import analyze_column


def grid_rows(sizes, props, epochs=10, acc=0.8, experiment="binary"):
    return [
        {
            "experiment": experiment,
            "n_train": n,
            "exception_prop": p,
            "mean_accuracy": acc,
            "epochs": epochs,
        }
        for n in sizes
        for p in props
    ]


def parse_frame(svg_text):
    root = ET.fromstring(svg_text)
    return Frame(
        x0=float(root.get("data-x0")),
        x1=float(root.get("data-x1")),
        y0=float(root.get("data-y0")),
        y1=float(root.get("data-y1")),
        left=float(root.get("data-left")),
        top=float(root.get("data-top")),
        width=float(root.get("data-width")),
        height=float(root.get("data-height")),
    )


def invert(frame, px, py):
    x = frame.x0 + (px - frame.left) / frame.width * (frame.x1 - frame.x0)
    y = frame.y1 - (py - frame.top) / frame.height * (frame.y1 - frame.y0)
    return x, y


class TestShade:
    def test_anchor_values(self):
        assert shade(0.5) == "#000000"
        assert shade(1.0) == "#ffffff"
        assert shade(0.75) == "#808080"

    def test_clamps_outside_range(self):
        assert shade(0.2) == "#000000"
        assert shade(1.3) == "#ffffff"


class TestHeatmap:
    def test_six_by_seven_grid_has_42_cells_and_curve(self):
        rows = grid_rows(sizes=range(100, 700, 100), props=[i / 20 for i in range(7)])
        svg = heatmap_svg(rows, epochs=10)
        assert svg.count('class="cell"') == 42
        assert 'class="tp-curve"' in svg
        ET.fromstring(svg)  # well-formed XML

    def test_filters_by_epochs(self):
        rows = grid_rows(sizes=[100], props=[0.0], epochs=10) + grid_rows(
            sizes=[100, 200], props=[0.0], epochs=4
        )
        svg = heatmap_svg(rows, epochs=4)
        assert svg.count('class="cell"') == 2

    def test_empty_selection_is_an_error(self):
        rows = grid_rows(sizes=[100], props=[0.0], epochs=10)
        with pytest.raises(ValueError, match="no rows"):
            heatmap_svg(rows, epochs=7)

    def test_mixed_rows_are_an_error(self):
        # one figure holds one kind of measurement, even at disjoint sizes
        rows = grid_rows(sizes=[100], props=[0.0]) + grid_rows(sizes=[200], props=[0.0], experiment="word_order")
        with pytest.raises(ValueError, match="mix experiment"):
            heatmap_svg(rows, epochs=10)
        # rows of another kind at other epochs are not selected
        rows = grid_rows(sizes=[100], props=[0.0]) + grid_rows(
            sizes=[200], props=[0.0], epochs=4, experiment="word_order"
        )
        assert heatmap_svg(rows, epochs=10).count('class="cell"') == 1

    def test_cell_shade_tracks_accuracy(self):
        rows = grid_rows(sizes=[100], props=[0.0], acc=1.0) + grid_rows(sizes=[200], props=[0.0], acc=0.5)
        svg = heatmap_svg(rows, epochs=10)
        assert 'fill="#ffffff"' in svg
        assert 'fill="#000000"' in svg

    def test_rows_at_one_size_and_proportion_are_one_cell(self):
        # two base seeds, say: one rectangle, shaded by the mean, where two
        # stacked rectangles would show only the last row drawn
        rows = grid_rows(sizes=[50], props=[0.0], acc=0.6) + grid_rows(sizes=[50], props=[0.0], acc=0.9)
        rows += grid_rows(sizes=[100], props=[0.0], acc=0.7)
        cells = [el for el in ET.fromstring(heatmap_svg(rows, epochs=10)) if el.get("class") == "cell"]
        got = [(el.get("data-n"), float(el.get("data-acc")), el.get("fill")) for el in cells]
        assert got == [("50", pytest.approx(0.75), shade(0.75)), ("100", 0.7, shade(0.7))]

    def test_curve_point_at_16_back_transforms(self):
        # the span is small, so the curve samples every integer N and
        # the N=16 point, inside the data's frame, must invert to 1/ln 16
        rows = grid_rows(sizes=[10, 20, 30], props=[0.1, 0.3, 0.5])
        svg = heatmap_svg(rows, epochs=10)
        frame = parse_frame(svg)
        assert (frame.y0, frame.y1) == pytest.approx((-0.1, 0.7))
        path = re.search(r'class="tp-curve" d="([^"]+)"', svg).group(1)
        coords = [
            tuple(map(float, pt[1:].split(",")))
            for pt in path.split(" ")
        ]
        backs = [invert(frame, px, py) for px, py in coords]
        at_16 = [y for x, y in backs if abs(x - 16) < 1e-6]
        assert at_16, "curve must sample N=16"
        assert at_16[0] == pytest.approx(1.0 / math.log(16), abs=1e-6)
        assert at_16[0] == pytest.approx(0.3607, abs=5e-4)

    def test_curve_on_a_wide_span_is_sampled(self):
        # the frame runs from N = -18,000 to 39,000, too wide to sample every
        # integer N, so the curve takes CURVE_SAMPLES evenly spaced ones, and
        # each drawn point still inverts to 1/ln N
        rows = grid_rows(sizes=[1000, 20000], props=[0.08, 0.16])
        svg = heatmap_svg(rows, epochs=10)
        frame = parse_frame(svg)
        assert frame.x1 - 2 > MAX_INTEGER_SAMPLING_SPAN
        path = re.search(r'class="tp-curve" d="([^"]+)"', svg).group(1)
        backs = [invert(frame, *map(float, pt[1:].split(","))) for pt in path.split(" ")]
        assert 0 < len(backs) <= CURVE_SAMPLES
        for x, y in backs:
            assert y == pytest.approx(1.0 / math.log(x), abs=1e-4)

    def test_out_of_range_curve_is_dropped(self):
        rows = grid_rows(sizes=[1000, 2000], props=[0.0, 0.01])
        svg = heatmap_svg(rows, epochs=10)
        frame = parse_frame(svg)
        assert (frame.y0, frame.y1) == pytest.approx((-0.01, 0.02))
        # 1/ln N over N = 2..3000 runs from 1.44 down to 0.125, all above
        # the frame's top
        assert 'class="tp-curve"' not in svg


def column_plot(points):
    return column_svg(points, analyze_column(points, n_types=55))


class TestColumnPlot:
    def step_points(self):
        pts = []
        for i in range(6):
            x = i / 10
            y = 0.95 if x < 0.25 else 0.55
            pts.append((x, y))
        return pts

    def test_contains_points_fits_and_stitch(self):
        svg = column_plot(self.step_points())
        assert svg.count('class="point"') == 6
        assert 'class="fit fit-left"' in svg
        assert 'class="fit fit-right"' in svg
        assert 'class="stitch"' in svg
        ET.fromstring(svg)

    def test_stitch_sits_at_break_proportion(self):
        svg = column_plot(self.step_points())
        frame = parse_frame(svg)
        match = re.search(r'class="stitch" x1="([0-9.]+)"', svg)
        x_back, _ = invert(frame, float(match.group(1)), 0.0)
        assert x_back == pytest.approx(1.0 / math.log(55), abs=1e-6)

    def test_caption_reports_classification(self):
        svg = column_plot(self.step_points())
        assert "quantal-jump-detected" in svg

    def test_too_few_points_still_plot(self):
        # below the regression minimum the scatter renders without fits
        svg = column_plot([(0.0, 0.9), (0.1, 0.8)])
        assert svg.count('class="point"') == 2
        assert 'class="stitch"' not in svg
        assert "insufficient-data" in svg

    def test_empty_points_error(self):
        with pytest.raises(ValueError, match="no points"):
            column_svg([], analyze_column(self.step_points(), 55))
