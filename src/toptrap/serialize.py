"""Table and chart emission: CSV, JSON and self-contained SVG line charts.

CSV dialect: comma separators, ``.`` decimals, ``#``-prefixed header lines
carrying the tool version and a parameter echo, then one row of column
names.  Values are printed with 17 significant digits so re-parsing
reproduces every float bit-exactly.

JSON schema: a single object ``{"params": {...}, "axes": [{"name": ...,
"values": [...]}, ...], "columns": [...], "data": [[row], ...]}``.

SVG charts are generated directly (polylines, ticks, text); they reference
nothing external, and the axis window is recorded in ``data-*`` attributes
on the root element so consumers can map pixels back to data coordinates.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from xml.etree import ElementTree as ET

import numpy as np

from . import __version__

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 720, 480  # chart size, px
TICKS = 6  # tick count aimed at per axis
_BLOCK = 4096  # rows formatted per block of text
_AXIS = '{\n      "name": %s,\n      "values": %s\n    }'  # one "axes" entry in the json.dumps(indent=2) layout


@dataclass
class Table:
    """Column-labelled float table with a provenance echo."""

    columns: tuple[str, ...]
    rows: np.ndarray
    params: dict = field(default_factory=dict)
    axes: tuple[tuple[str, np.ndarray], ...] = ()

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def _axis_text(column: np.ndarray, values: np.ndarray, text: list[str], template: str) -> list[str]:
    """``column`` written as ``text[i]`` wherever it holds ``values[i]``, bit for bit, and by ``template`` elsewhere."""
    bits, want = values.view(np.int64), column.view(np.int64)  # bits keep -0.0 and NaN payloads apart
    if np.array_equal(bits, want):
        return text
    order = np.argsort(bits)
    at = order[np.searchsorted(bits[order], want).clip(max=len(bits) - 1)]
    gathered, off = np.array(text, dtype=object)[at], bits[at] != want
    gathered[off] = [template % v for v in column[off].tolist()]
    return gathered.tolist()


def _rows(table: Table, template: str, axes: dict, join) -> Iterator[str]:
    """Row texts in blocks of ``_BLOCK`` rows, by the row template ``join`` makes of one template per column.  A
    column named in ``axes`` (name -> non-empty float64 values and their text) is written as that text, mapped once
    over the whole column, any other column by ``template``."""
    named = list(zip(table.columns, table.rows.T))
    texts = {j: _axis_text(column, *axes[name], template) for j, (name, column) in enumerate(named) if name in axes}
    row = join(["%s" if name in axes else template for name, _ in named]).__mod__
    for start in range(0, len(table.rows), _BLOCK):
        cut = slice(start, start + _BLOCK)
        lists = [texts[j][cut] if j in texts else column[cut].tolist() for j, (_, column) in enumerate(named)]
        yield "".join(map(row, zip(*lists)))


def to_csv(table: Table) -> str:
    """CSV lists no axes, so it formats an axis only where a like-named column holds more values than the axis."""
    lines = [f"# toptrap {__version__}", *(f"# {key} = {value}" for key, value in table.params.items())]
    axes = ((name, np.asarray(v, float)) for name, v in table.axes if name in table.columns)
    text = {name: (v, list(map("%.17g".__mod__, v.tolist()))) for name, v in axes if 0 < len(v) < len(table.rows)}
    blocks = _rows(table, "%.17g", text, lambda templates: ",".join(templates) + "\n")
    return "".join(["\n".join([*lines, ",".join(table.columns), ""]), *blocks])


def parse_csv(text: str) -> Table:
    """Inverse of :func:`to_csv`, header-echo values as strings.  Up to the first data line come ``#`` lines (``key =
    value`` ones are params), blank lines and the column row.  numpy's reader takes the rest with ``float()``'s bits,
    skipping empty lines and ``#`` comments; a row of the wrong width, then a value it refuses, is a ValueError."""
    params, columns, lines = {}, None, text.splitlines()
    for start, line in enumerate(lines):
        if line.startswith("#"):
            key, equals, value = line[1:].partition("=")
            if equals:
                params[key.strip()] = value.strip()
        elif not line.strip():
            continue
        elif columns is None:
            columns = tuple(part.strip() for part in line.split(","))
        else:
            break
    else:  # no data line, which numpy's reader would warn of
        if columns is None:
            raise ValueError("no column header found in CSV text")
        return Table(columns=columns, rows=np.empty((0, len(columns))), params=params)
    try:
        rows = np.loadtxt(lines, delimiter=",", ndmin=2, skiprows=start)
    except ValueError as error:
        raise (_refusal(lines, start, len(columns)) or error) from None
    if rows.shape[1] != len(columns):
        raise _refusal(lines, start, len(columns))
    return Table(columns=columns, rows=rows, params=params)


def _refusal(lines: list[str], start: int, width: int) -> ValueError | None:
    """The error for the first data line from ``lines[start]`` on of the wrong width, else for the first value numpy's
    reader refuses; as that reader does, it reads a line up to its ``#`` and skips it if that leaves nothing."""
    cut = ((number, line.partition("#")[0]) for number, line in enumerate(lines[start:], start + 1))
    data = [(number, line.split(",")) for number, line in cut if line]
    for number, fields in data:
        if len(fields) != width:
            return ValueError(f"CSV line {number} has {len(fields)} fields, the header has {width}")
    for number, fields in data:
        for index, value in enumerate(fields, 1):
            try:
                np.loadtxt([value or " "], delimiter=",")  # alone, "" is an empty line; " " fails as "" does
            except ValueError:
                return ValueError(f"CSV line {number}, field {index}: could not convert string to float: {value!r}")
    return None


def _json_array(items, indent: str) -> str:
    """Formatted ``items`` in the ``json.dumps(indent=2)`` layout of an array whose brackets sit at ``indent``."""
    body = f",\n{indent}  ".join(items)  # every item is non-empty text, so only no items give no body
    return f"[\n{indent}  {body}\n{indent}]" if body else "[]"


def _json_floats(text: str) -> str:
    """``text`` of repr's floats with its nan and inf, the only reprs holding an "n", as json's NaN and Infinity."""
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def to_json(table: Table) -> str:
    """``json.dumps(payload, indent=2)`` of the schema above; floats are written by ``repr``, as json writes them."""
    params = json.dumps({"tool": f"toptrap {__version__}", **table.params}, indent=2).replace("\n", "\n  ")
    columns = json.dumps(list(table.columns), indent=2).replace("\n", "\n  ")
    texts = [(name, np.asarray(v), list(map("%r".__mod__, np.asarray(v).tolist()))) for name, v in table.axes]
    axes = _json_array([_AXIS % (json.dumps(name), _json_floats(_json_array(t, "      "))) for name, _, t in texts], "  ")
    float_axes = {name: (v, text) for name, v, text in texts if len(v) and v.dtype == np.float64}  # repr(3) != repr(3.0)
    blocks = map(_json_floats, _rows(table, "%r", float_axes, lambda row: ",\n    " + _json_array(row, "    ")))
    first = next(blocks, "")  # each row opens with its separator, which the table's first row drops
    data = ["[", first[1:], *blocks, "\n  ]"] if first else ["[]"]
    del texts, float_axes  # the axes' text, a column's worth of str objects, is not held through the join
    head = ['{\n  "params": ', params, ',\n  "axes": ', axes, ',\n  "columns": ', columns, ',\n  "data": ']
    return "".join([*head, *data, "\n}\n"])  # each piece is copied once, into the text


@dataclass(frozen=True)
class ChartSeries:
    """One polyline of the chart; ``dash`` is an SVG dash pattern or None."""

    label: str
    x: np.ndarray
    y: np.ndarray
    dash: str | None = None


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] with a 1-2-5 step, at most TICKS + 1 of them."""
    if hi - lo < 4 * TICKS * math.ulp(max(abs(lo), abs(hi))):  # also hi <= lo: too few floats between for round ticks
        return [lo]
    raw = (hi - lo) / (TICKS - 1)
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * power
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step and value < math.inf and len(ticks) <= TICKS:  # hi + slack may overflow
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def _format_tick(value: float) -> str:
    text = f"{value:.6g}"
    return "0" if text == "-0" else text


def render_line_chart(
    series: list[ChartSeries],
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    annotation: str = "",
) -> str:
    """Render a multi-curve line chart as a standalone SVG document.  A window wider than the largest float (either
    span, y with its 5% pad, or a flat series at the largest float) is a ValueError naming the data's range."""
    if not series:
        raise ValueError("at least one series is required")
    x_lo, x_hi = min(float(np.min(s.x)) for s in series), max(float(np.max(s.x)) for s in series)
    y_lo, y_hi = min(float(np.min(s.y)) for s in series), max(float(np.max(s.y)) for s in series)
    data = f"x in [{x_lo!r}, {x_hi!r}] and y in [{y_lo!r}, {y_hi!r}]"
    if x_hi == x_lo:  # one unit wide, or one ulp where adding 1 is lost
        x_hi = max(x_lo + 1.0, math.nextafter(x_lo, math.inf))
    if y_hi == y_lo:
        y_hi = max(y_lo + 1.0, math.nextafter(y_lo, math.inf))
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    if not (x_hi - x_lo < math.inf and y_hi - y_lo < math.inf):
        raise ValueError(f"cannot chart {data}: the window, y padded by 5%, is wider than the largest float")

    left, right, top, bottom = 64.0, 16.0, 34.0, 48.0
    plot_w = WIDTH - left - right
    plot_h = HEIGHT - top - bottom

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    names = ("x-min", "x-max", "y-min", "y-max", "plot-left", "plot-top", "plot-width", "plot-height")
    window = dict(zip(names, (x_lo, x_hi, y_lo, y_hi, left, top, plot_w, plot_h)))
    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(WIDTH),
            "height": str(HEIGHT),
            "viewBox": f"0 0 {WIDTH} {HEIGHT}",
            **{f"data-{name}": repr(value) for name, value in window.items()},
        },
    )
    ET.SubElement(root, "rect", {"x": "0", "y": "0", "width": str(WIDTH), "height": str(HEIGHT), "fill": "white"})
    ET.SubElement(
        root,
        "rect",
        {
            "x": f"{left:.1f}",
            "y": f"{top:.1f}",
            "width": f"{plot_w:.1f}",
            "height": f"{plot_h:.1f}",
            "fill": "none",
            "stroke": "#333333",
            "stroke-width": "1",
        },
    )

    def text(x, y, content, size, anchor="middle", extra=None):
        attrs = {
            "x": f"{x:.1f}",
            "y": f"{y:.1f}",
            "font-family": "sans-serif",
            "font-size": str(size),
            "text-anchor": anchor,
            "fill": "#111111",
        }
        if extra:
            attrs.update(extra)
        node = ET.SubElement(root, "text", attrs)
        node.text = content

    def line(x1, y1, x2, y2, stroke, **extra):
        ends = {"x1": f"{x1:.1f}", "y1": f"{y1:.1f}", "x2": f"{x2:.1f}", "y2": f"{y2:.1f}"}
        ET.SubElement(root, "line", {**ends, "stroke": stroke, **extra})

    for tick in _nice_ticks(x_lo, x_hi):
        x = px(tick)
        line(x, top + plot_h, x, top + plot_h + 5, "#333333")
        text(x, top + plot_h + 18, _format_tick(tick), size=11)
    for tick in _nice_ticks(y_lo, y_hi):
        y = py(tick)
        line(left - 5, y, left, y, "#333333")
        text(left - 8, y + 4, _format_tick(tick), size=11, anchor="end")

    dashes = [{"stroke-dasharray": s.dash} if s.dash else {} for s in series]
    for k, s in enumerate(series):
        attrs = {
            "fill": "none",
            "stroke": PALETTE[k % len(PALETTE)],
            "stroke-width": "1.5",
            "class": "curve",
            "points": " ".join(map("%.3f,%.3f".__mod__, zip(px(s.x).tolist(), py(s.y).tolist()))),
            **dashes[k],
        }
        ET.SubElement(root, "polyline", attrs)

    legend_x = left + plot_w - 150.0
    legend_y = top + 14.0
    for k, s in enumerate(series):
        y = legend_y + 16.0 * k
        line(legend_x, y - 4, legend_x + 24, y - 4, PALETTE[k % len(PALETTE)], **{"stroke-width": "1.5", **dashes[k]})
        text(legend_x + 30, y, s.label, size=11, anchor="start")

    if title:
        text(left + plot_w / 2.0, 18.0, title, size=14)
    if annotation:
        text(left + plot_w / 2.0, 31.0, annotation, size=10, extra={"fill": "#555555"})
    text(left + plot_w / 2.0, HEIGHT - 10.0, x_label, size=12)
    text(16.0, top + plot_h / 2.0, y_label, size=12, extra={"transform": f"rotate(-90 16 {top + plot_h / 2.0:.1f})"})

    return ET.tostring(root, encoding="unicode") + "\n"
