"""Tests for CSV/JSON emission and the standalone SVG chart renderer."""

import json
import math
import re
import sys
import tracemalloc
import warnings
from unittest import mock
from xml.etree import ElementTree as ET

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis.extra.numpy import arrays

from toptrap import __version__, serialize
from toptrap.cli import table_from_sweep
from toptrap.serialize import (
    TICKS,
    ChartSeries,
    Table,
    _nice_ticks,
    parse_csv,
    render_line_chart,
    to_csv,
    to_json,
)
from toptrap.sweep import figure_dataset

RNG = np.random.default_rng(3)
SVG_NS = "{http://www.w3.org/2000/svg}"
MAX = sys.float_info.max
FINITE = st.floats(allow_nan=False, allow_infinity=False)  # the whole float range, subnormals and -0.0 too


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


# Axis values: any float64, with the ones that only their bits tell apart drawn often: +-0.0 and NaN payloads.
AXIS_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, float(np.uint64(0x7FF8000000000123).view(np.float64))]), FLOATS
)


@st.composite
def tables(draw):
    """0-50 rows by 1-6 columns of any float64, with 0-3 axes of 0-50 values and a few params.

    Axes are often named after a column, two of them at times after the same one, and some are empty.  A column
    with a like-named axis may take the axis's values tiled or repeated to its length, as a sweep's columns do,
    with some entries left off the axis; or the axis may be the column itself, as ``evolve``'s ``t`` is.
    """
    rows = draw(arrays(np.float64, st.tuples(st.integers(0, 50), st.integers(1, 6)), elements=FLOATS))
    columns = draw(st.lists(NAMES, min_size=rows.shape[1], max_size=rows.shape[1]))
    axis = st.tuples(st.one_of(st.sampled_from(columns), NAMES), arrays(np.float64, st.integers(0, 50), elements=AXIS_FLOATS))
    axes = draw(st.lists(axis, max_size=3))
    n = len(rows)
    for j, name in enumerate(columns):
        like = [k for k, (axis_name, _) in enumerate(axes) if axis_name == name]
        how = draw(st.sampled_from(["own values", "tiled", "repeated", "the axis"]))
        if not like or how == "own values":
            continue
        k = draw(st.sampled_from(like))
        values = axes[k][1]
        if how == "the axis":
            axes[k] = (name, rows[:, j].copy())
        elif len(values):
            on_axis = np.resize(values, n) if how == "tiled" else np.repeat(values, -(-n // len(values)))[:n]
            off = draw(arrays(np.bool_, n, fill=st.just(False)))  # mostly on the axis
            rows[:, j] = np.where(off, rows[:, j], on_axis)
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


WRITER_BOUNDS = [(to_csv, 2.3), (to_json, 2.3), (parse_csv, 2.7)]  # peak per byte of text


@hyp.given(table=tables())
@hyp.settings(max_examples=200, deadline=None)
@pytest.mark.parametrize("block", [1, 2, 7])
def test_writers_match_the_reference_across_block_edges(block, table):
    """With blocks of a few rows, block edges fall inside tiled, repeated and axis columns, NaN and +-inf rows and
    repeated column names, and the 0-row table has no block."""
    with mock.patch.object(serialize, "_BLOCK", block):
        assert to_csv(table) == reference_csv(table)
        assert to_json(table) == reference_json(table)


@pytest.mark.parametrize(
    "call, bound, rows",
    [
        *(pytest.param(call, bound, 20_000, id=call.__name__) for call, bound in WRITER_BOUNDS),
        *(pytest.param(call, bound, 100_000, id=f"{call.__name__}-100000") for call, bound in WRITER_BOUNDS),
    ],
)
def test_peak_memory_near_the_text(call, bound, rows):
    """On an ``evolve``-like table, ``rows`` x 3 with its ``t`` axis, a writer's or parse_csv's tracemalloc peak stays
    within ``bound`` times the text it writes or reads.  Measured at 20,000 and 100,000 rows: to_csv 2.00 and 2.00,
    to_json 2.16 and 2.03 (the text and its blocks, and the ``t`` axis's text), parse_csv 2.38 and 2.36.  With the
    whole table's row texts and their joins, the writers held 3.96 and 3.39 times the text."""
    ts = np.linspace(0.0, 20.0, rows)
    table = Table(("t", "survival", "transition"), np.column_stack([ts, np.sin(ts) ** 2, np.cos(ts) ** 2]), axes=(("t", ts),))
    text = (to_csv if call is parse_csv else call)(table)
    arg = text if call is parse_csv else table
    tracemalloc.start()
    try:
        call(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * len(text)


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


class TestCsvReader:
    """What numpy's reader accepts where it and ``float()`` differ, and the errors for what it refuses."""

    def test_values_keep_the_bits_float_gives(self):
        big, small = sys.float_info.max, sys.float_info.min
        edges = [0.0, -0.0, 5e-324, -5e-324, small, -small, big, -big, math.inf, -math.inf]
        values = np.concatenate([edges, RNG.integers(0, 2**64, 5000, dtype=np.uint64).view(np.float64)])
        texts = ["%.17g" % v for v in values.tolist()]
        back = parse_csv("v\n" + "\n".join(texts) + "\n").column("v")
        assert [v.hex() for v in back.tolist()] == [float(text).hex() for text in texts]

    @pytest.mark.parametrize(
        "text", ["a,b,c\n", "a,b,c", "# toptrap 0\n\na,b,c\n\n# k = v\n"], ids=["bare", "no-newline", "comments"]
    )
    def test_header_only_gives_no_rows_and_no_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = parse_csv(text)
        assert table.columns == ("a", "b", "c") and table.rows.shape == (0, 3) and table.rows.dtype == np.float64

    def test_header_block_runs_to_the_first_data_line(self):
        """``#`` lines there are params and blank ones are skipped; after it, ``#`` starts a comment."""
        table = parse_csv("# k = 1\na,b\n  \n# j = 2\n1,2\n\n# i = 3\n3,4 # note\n")
        assert table.params == {"k": "1", "j": "2"}
        assert table.rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1_0,2\n", "CSV line 2, field 1: could not convert string to float: '1_0'"),
            ("a,b\n1,2\n   \n3,4\n", "CSV line 3 has 1 fields, the header has 2"),
            ("a\n1\n \n", "CSV line 3, field 1: could not convert string to float: ' '"),
            ("# toptrap 0\na,b\n1,2\n3,x\n", "CSV line 4, field 2: could not convert string to float: 'x'"),
            ("a,b\n1,\n", "CSV line 2, field 2: could not convert string to float: ''"),
            ("a,b,c\n1,2\n3,4\n", "CSV line 2 has 2 fields, the header has 3"),
            ("# toptrap 0\n# k = v\n\na,b,c\n1,2\n3,4\n5,6\n", "CSV line 5 has 2 fields, the header has 3"),
            ("a,b\n1,x\n3,4,5\n", "CSV line 3 has 3 fields, the header has 2"),
        ],
        ids=["underscore", "whitespace-line", "whitespace-value", "bad-value", "empty-value", "all-narrower",
             "all-narrower-after-header-block", "width-first"],
    )
    def test_refusal_names_the_line(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_csv(text)


class TestJson:
    def test_non_finite_data_and_axis_pinned(self):
        """nan, inf and -inf in a data column and in an axis read as json's NaN, Infinity and -Infinity."""
        rows = np.array([[0.0, math.nan], [0.5, math.inf], [1.0, -math.inf]])
        axes = (("t", np.array([0.0, 0.5, 1.0])), ("s", np.array([math.nan, -math.inf])))
        text = to_json(Table(("t", "p"), rows, params={"theta": 1.0}, axes=axes))
        assert text == (
            f'{{\n  "params": {{\n    "tool": "toptrap {__version__}",\n    "theta": 1.0\n  }},\n  "axes": [\n'
            '    {\n      "name": "t",\n      "values": [\n        0.0,\n        0.5,\n        1.0\n      ]\n    },\n'
            '    {\n      "name": "s",\n      "values": [\n        NaN,\n        -Infinity\n      ]\n    }\n  ],\n'
            '  "columns": [\n    "t",\n    "p"\n  ],\n  "data": [\n    [\n      0.0,\n      NaN\n    ],\n'
            '    [\n      0.5,\n      Infinity\n    ],\n    [\n      1.0,\n      -Infinity\n    ]\n  ]\n}\n'
        )

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
        "lo, hi, ticks",
        [
            (1.0, 1.0 + 4 * TICKS * 2.0**-52, [1.0, 1.000000000000002, 1.000000000000004]),
            (1.0, 1.0 + (4 * TICKS - 1) * 2.0**-52, [1.0]),
            (1e10 - 10.0, 1e10, [9999999990.0, 9999999992.0, 9999999994.0, 9999999996.0, 9999999998.0, 1e10]),
            (0.0, MAX, [0.0, 5e307, 1e308, 1.5e308]),
        ],
        ids=["4-TICKS-ulp-wide", "one-ulp-narrower", "slack-rounds-away", "up-to-the-largest-float"],
    )
    def test_nice_ticks_at_their_edges(self, lo, hi, ticks):
        """A range of 4 TICKS ulp gets round ticks, one ulp less only lo.  At 1e10 the 1e-9 step of slack rounds away
        in hi + 1e-9 step, so the tick on hi is kept only by the <= of the loop.  Up to the largest float, hi + 1e-9
        step is inf, and the step past 1.5e308 once gave ticks at inf."""
        assert _nice_ticks(lo, hi) == ticks

    @pytest.mark.parametrize(
        "xs, ys, window",
        [
            ([2.0, 2.0], [0.0, 1.0], (2.0, 3.0, -0.05, 1.05)),
            ([0.0, 1.0], [0.5, 0.5], (0.0, 1.0, 0.45, 1.55)),
            ([2.0**53] * 2, [0.0, 1.0], (2.0**53, 2.0**53 + 2.0, -0.05, 1.05)),
            ([-(2.0**60)] * 2, [0.0, 1.0], (-(2.0**60), -(2.0**60) + 128.0, -0.05, 1.05)),
            ([1e300] * 2, [0.0, 1.0], (1e300, math.nextafter(1e300, math.inf), -0.05, 1.05)),
        ],
        ids=["flat-x", "flat-y", "flat-x-at-2^53", "flat-x-at-minus-2^60", "flat-x-at-1e300"],
    )
    def test_flat_series_window_widened_by_one(self, xs, ys, window):
        """A flat series would divide by a zero-width window; its axis spans one unit from the value, y then padded 5%.
        From 2^53 on, x + 1 rounds to x, which raised ZeroDivisionError: the axis spans one ulp there."""
        root = ET.fromstring(render_line_chart([ChartSeries("s", np.array(xs), np.array(ys))]))
        got = tuple(float(root.get(f"data-{name}")) for name in ("x-min", "x-max", "y-min", "y-max"))
        assert got == pytest.approx(window, rel=0, abs=1e-15)
        points = [tuple(map(float, raw.split(","))) for raw in next(root.iter(f"{SVG_NS}polyline")).get("points").split()]
        assert len(points) == 2 and all(math.isfinite(v) for point in points for v in point)

    @pytest.mark.parametrize(
        "xs, ys, data",
        [
            ([0.9, 1.0, 1.1], [10.0, 1.7857142857142864e308, 10.0], "[0.9, 1.1] and y in [10.0, 1.7857142857142864e+308]"),
            ([0.0, 1.0], [-1e308, 1e308], "[0.0, 1.0] and y in [-1e+308, 1e+308]"),
            ([-1e308, 1e308], [0.0, 1.0], "[-1e+308, 1e+308] and y in [0.0, 1.0]"),
            ([MAX, MAX], [0.0, 1.0], "[1.7976931348623157e+308, 1.7976931348623157e+308] and y in [0.0, 1.0]"),
        ],
        ids=["tau-peak", "y-span", "x-span", "flat-x-at-the-largest-float"],
    )
    def test_window_beyond_the_float_range_refused(self, xs, ys, data):
        """tau reaches 1.79e308 at x = 1, where the 5% pad took the y window to inf and the ticks raised OverflowError;
        a span that overflows by itself, or the ulp added to a flat x at the largest float, is refused alike."""
        message = re.escape(f"cannot chart x in {data}: the window, y padded by 5%, is wider than the largest float")
        with pytest.raises(ValueError, match=f"^{message}$"):
            render_line_chart([ChartSeries("s", np.array(xs), np.array(ys))])

    @hyp.settings(max_examples=400, deadline=None)
    @hyp.given(st.lists(st.integers(1, 5).flatmap(lambda n: st.tuples(*[arrays(float, n, elements=FINITE)] * 2)),
                        min_size=1, max_size=3))
    def test_finite_series_give_a_chart_or_a_refusal(self, pairs):
        """Finite series from across the float range: a well-formed SVG with no inf or nan in it, or the window's
        ValueError, nothing else."""
        try:
            text = render_line_chart([ChartSeries(f"s{k}", x, y) for k, (x, y) in enumerate(pairs)])
        except ValueError as refusal:
            assert str(refusal).startswith("cannot chart x in [")
        else:
            assert ET.fromstring(text).tag == f"{SVG_NS}svg" and "inf" not in text and "nan" not in text

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            render_line_chart([])
