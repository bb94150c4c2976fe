"""Tests for CSV/JSON emission and the standalone SVG chart renderer."""

import json
import math
import re
from xml.etree import ElementTree as ET

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis.extra.numpy import arrays

from toptrap import __version__
from toptrap.serialize import (
    TICKS,
    ChartSeries,
    Table,
    parse_csv,
    render_line_chart,
    table_from_sweep,
    to_csv,
    to_json,
)
from toptrap.sweep import figure_dataset

RNG = np.random.default_rng(3)
SVG_NS = "{http://www.w3.org/2000/svg}"


def reference_csv(table):
    """The CSV text :func:`to_csv` must write: one ``f"{v:.17g}"`` per value."""
    lines = [f"# toptrap {__version__}", *(f"# {key} = {value}" for key, value in table.params.items())]
    lines.append(",".join(table.columns))
    lines += [",".join(f"{v:.17g}" for v in row) for row in table.rows]
    return "\n".join(lines) + "\n"


def reference_json(table):
    """The JSON text :func:`to_json` must write: ``json.dumps(indent=2)`` of the whole payload."""
    payload = {
        "params": {"tool": f"toptrap {__version__}", **table.params},
        "axes": [{"name": name, "values": np.asarray(v).tolist()} for name, v in table.axes],
        "columns": list(table.columns),
        "data": table.rows.tolist(),
    }
    return json.dumps(payload, indent=2) + "\n"


# Names spelt like repr's non-finite floats must come through the writers untouched.
NAMES = st.one_of(st.sampled_from(["nan", "inf", "-inf", "info"]), st.text(alphabet="abinfNI_", min_size=1, max_size=6))
FLOATS = st.floats(width=64)  # every float64: +-0.0, subnormals, +-1e308, NaN and +-inf


@st.composite
def tables(draw):
    """0-50 rows by 1-6 columns of any float64, with 0-2 axes of 0-50 values and a few params."""
    rows = draw(arrays(np.float64, st.tuples(st.integers(0, 50), st.integers(1, 6)), elements=FLOATS))
    columns = draw(st.lists(NAMES, min_size=rows.shape[1], max_size=rows.shape[1]))
    axes = draw(st.lists(st.tuples(NAMES, arrays(np.float64, st.integers(0, 50), elements=FLOATS)), max_size=2))
    params = draw(st.dictionaries(NAMES, st.one_of(FLOATS, st.integers(), NAMES), max_size=3))
    return Table(columns=tuple(columns), rows=rows, params=params, axes=tuple(axes))


@hyp.given(table=tables())
@hyp.settings(max_examples=300, deadline=None)
def test_writers_match_the_reference_bytes_and_round_trip(table):
    assert to_csv(table) == reference_csv(table)
    assert to_json(table) == reference_json(table)
    back = parse_csv(to_csv(table)).rows
    nan = np.isnan(table.rows)
    assert back.shape == table.rows.shape
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(back.view(np.uint64)[~nan], table.rows.view(np.uint64)[~nan])


def tricky_table():
    rows = np.array(
        [
            [1 / 3, 0.1, -1e-300],
            [math.pi, 1e300, 5e-324],
            [-0.0, 2.0**-52, 123456789.123456789],
        ]
    )
    return Table(columns=("a", "b", "c"), rows=rows, params={"omega0": 1.0, "note": "x"})


class TestCsv:
    def test_round_trip_is_bit_exact(self):
        table = tricky_table()
        back = parse_csv(to_csv(table))
        assert back.columns == table.columns
        assert back.params == {"omega0": "1.0", "note": "x"}
        assert np.array_equal(back.rows, table.rows)

    def test_round_trip_random(self):
        rows = RNG.standard_normal((40, 5)) * 10.0 ** RNG.integers(-12, 12, size=(40, 5))
        table = Table(columns=("c1", "c2", "c3", "c4", "c5"), rows=rows)
        back = parse_csv(to_csv(table))
        assert np.array_equal(back.rows, rows)

    def test_headers(self):
        text = to_csv(tricky_table())
        lines = text.splitlines()
        assert lines[0].startswith("# toptrap ")
        assert "# omega0 = 1.0" in lines
        assert "a,b,c" in lines

    def test_parse_requires_header(self):
        with pytest.raises(ValueError):
            parse_csv("# only comments\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b,c\n1,2\n3,4\n", "CSV line 2 has 2 fields, the header has 3"),
            ("# toptrap 0\n\na,b\n1,2\n3,4,5\n", "CSV line 5 has 3 fields, the header has 2"),
        ],
        ids=["narrower-than-header", "ragged"],
    )
    def test_row_width_must_match_header(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_csv(text)


class TestJson:
    def test_schema_and_round_trip(self):
        table = table_from_sweep(figure_dataset("fig3"))
        payload = json.loads(to_json(table))
        assert set(payload) == {"params", "axes", "columns", "data"}
        assert payload["columns"] == list(table.columns)
        assert [a["name"] for a in payload["axes"]] == ["theta", "x"]
        assert np.array_equal(np.array(payload["data"]), table.rows)

    def test_params_carry_tool_version(self):
        payload = json.loads(to_json(tricky_table()))
        assert payload["params"]["tool"].startswith("toptrap ")
        assert payload["params"]["omega0"] == 1.0


class TestSvg:
    def chart(self):
        xs = np.linspace(0.0, 4.0, 101)
        return render_line_chart(
            [
                ChartSeries("solid", xs, 1.0 / np.sqrt(1 + xs**2)),
                ChartSeries("dashed", xs, np.exp(-xs), dash="6,4"),
            ],
            title="test chart",
            x_label="x",
            y_label="y",
            annotation="note",
        )

    def test_well_formed_and_self_contained(self):
        text = self.chart()
        root = ET.fromstring(text)
        assert root.tag == f"{SVG_NS}svg"
        assert "href" not in text and "url(" not in text and "<!DOCTYPE" not in text

    def test_curves_and_legend(self):
        root = ET.fromstring(self.chart())
        polylines = list(root.iter(f"{SVG_NS}polyline"))
        assert len(polylines) == 2
        assert polylines[1].get("stroke-dasharray") == "6,4"
        labels = [e.text for e in root.iter(f"{SVG_NS}text")]
        assert "solid" in labels and "dashed" in labels and "test chart" in labels

    def test_pixel_mapping_inverts(self):
        xs = np.linspace(0.0, 2.0, 21)
        ys = np.sin(xs)
        root = ET.fromstring(render_line_chart([ChartSeries("s", xs, ys)]))
        x_lo, x_hi = float(root.get("data-x-min")), float(root.get("data-x-max"))
        y_lo, y_hi = float(root.get("data-y-min")), float(root.get("data-y-max"))
        left, top = float(root.get("data-plot-left")), float(root.get("data-plot-top"))
        pw, ph = float(root.get("data-plot-width")), float(root.get("data-plot-height"))
        points = next(root.iter(f"{SVG_NS}polyline")).get("points").split()
        for (raw, x_expected, y_expected) in zip(points, xs, ys):
            px, py = map(float, raw.split(","))
            x_back = x_lo + (px - left) / pw * (x_hi - x_lo)
            y_back = y_hi - (py - top) / ph * (y_hi - y_lo)
            assert x_back == pytest.approx(x_expected, abs=1e-3)
            assert y_back == pytest.approx(y_expected, abs=1e-3)

    @pytest.mark.parametrize(
        "xs, ys",
        [([1.0, 1.0000000000000002], [0.0, 1.0]), ([0.0, 1.0], [0.9999999999999999, 1.0])],
        ids=["x-axis", "y-axis"],
    )
    def test_ulp_wide_axis_gets_bounded_ticks(self, xs, ys):
        """A tick step below half an ulp of the tick value once left the value in place, and the tick loop never ended."""
        root = ET.fromstring(render_line_chart([ChartSeries("s", np.array(xs), np.array(ys))]))
        left, top = float(root.get("data-plot-left")), float(root.get("data-plot-top"))
        pw, ph = float(root.get("data-plot-width")), float(root.get("data-plot-height"))
        lines = list(root.iter(f"{SVG_NS}line"))
        x_ticks = [float(e.get("x1")) for e in lines if float(e.get("y2")) == top + ph + 5]
        y_ticks = [float(e.get("y1")) for e in lines if float(e.get("x1")) == left - 5]
        for ticks, lo, hi in ((x_ticks, left, left + pw), (y_ticks, top, top + ph)):
            assert 1 <= len(ticks) <= TICKS + 1
            assert all(lo <= v <= hi for v in ticks)

    @pytest.mark.parametrize(
        "xs, ys, window",
        [([2.0, 2.0], [0.0, 1.0], (2.0, 3.0, -0.05, 1.05)), ([0.0, 1.0], [0.5, 0.5], (0.0, 1.0, 0.45, 1.55))],
        ids=["flat-x", "flat-y"],
    )
    def test_flat_series_window_widened_by_one(self, xs, ys, window):
        """A flat series would divide by a zero-width window; its axis spans one unit from the value, y then padded 5%."""
        root = ET.fromstring(render_line_chart([ChartSeries("s", np.array(xs), np.array(ys))]))
        got = tuple(float(root.get(f"data-{name}")) for name in ("x-min", "x-max", "y-min", "y-max"))
        assert got == pytest.approx(window, rel=0, abs=1e-15)
        points = [tuple(map(float, raw.split(","))) for raw in next(root.iter(f"{SVG_NS}polyline")).get("points").split()]
        assert len(points) == 2 and all(math.isfinite(v) for point in points for v in point)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            render_line_chart([])
