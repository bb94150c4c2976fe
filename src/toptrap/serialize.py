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

import itertools
import json
import math
from dataclasses import dataclass, field
from xml.etree import ElementTree as ET

import numpy as np

from . import __version__

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 720, 480  # chart size, px
TICKS = 6  # tick count aimed at per axis
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


def _rows(table: Table, template: str, axes: dict, join) -> map:
    """Row texts, by the row template ``join`` makes of one template per column.  A column named in ``axes`` (name ->
    non-empty float64 values and their text) is written as that text, any other column by ``template``."""
    named = list(zip(table.columns, table.rows.T))
    lists = [_axis_text(column, *axes[name], template) if name in axes else column.tolist() for name, column in named]
    return map(join(["%s" if name in axes else template for name, _ in named]).__mod__, zip(*lists))


def to_csv(table: Table) -> str:
    """CSV lists no axes, so it formats an axis only where a like-named column holds more values than the axis."""
    lines = [f"# toptrap {__version__}"]
    for key, value in table.params.items():
        lines.append(f"# {key} = {value}")
    lines.append(",".join(table.columns))
    axes = ((name, np.asarray(v, float)) for name, v in table.axes if name in table.columns)
    text = {name: (v, ["%.17g" % x for x in v.tolist()]) for name, v in axes if 0 < len(v) < len(table.rows)}
    lines.extend(_rows(table, "%.17g", text, ",".join))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> Table:
    """Inverse of :func:`to_csv`; header-echo values come back as strings, and a row of the wrong width is a ValueError."""
    params = {}
    columns: tuple[str, ...] | None = None
    lines = []
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            key, equals, value = line[1:].partition("=")
            if equals:
                params[key.strip()] = value.strip()
        elif not line.strip():
            continue
        elif columns is None:
            columns = tuple(part.strip() for part in line.split(","))
        elif line.count(",") != len(columns) - 1:
            raise ValueError(f"CSV line {number} has {line.count(',') + 1} fields, the header has {len(columns)}")
        else:
            lines.append(line)
    if columns is None:
        raise ValueError("no column header found in CSV text")
    blocks = (",".join(lines[i : i + 4096]).split(",") for i in range(0, len(lines), 4096))  # float() keeps the bits
    data = np.fromiter(map(float, itertools.chain.from_iterable(blocks)), float, len(lines) * len(columns))
    return Table(columns=columns, rows=data.reshape(len(lines), len(columns)), params=params)


def _json_array(items, indent: str) -> str:
    """Formatted ``items`` in the ``json.dumps(indent=2)`` layout of an array whose brackets sit at ``indent``."""
    body = f",\n{indent}  ".join(items)  # every item is non-empty text, so only no items give no body
    return f"[\n{indent}  {body}\n{indent}]" if body else "[]"


def _json_floats(items, indent: str) -> str:
    """:func:`_json_array` of ``items``, repr's text of floats; its nan and inf become json's NaN and Infinity."""
    return _json_array(items, indent).replace("nan", "NaN").replace("inf", "Infinity")


def to_json(table: Table) -> str:
    """``json.dumps(payload, indent=2)`` of the schema above; floats are written by ``repr``, as json writes them."""
    params = json.dumps({"tool": f"toptrap {__version__}", **table.params}, indent=2).replace("\n", "\n  ")
    columns = json.dumps(list(table.columns), indent=2).replace("\n", "\n  ")
    texts = [(name, np.asarray(v), ["%r" % x for x in np.asarray(v).tolist()]) for name, v in table.axes]
    axes = [_AXIS % (json.dumps(name), _json_floats(text, "      ")) for name, _, text in texts]
    float_axes = {name: (v, text) for name, v, text in texts if len(v) and v.dtype == np.float64}  # repr(3) != repr(3.0)
    data = _json_floats(_rows(table, "%r", float_axes, lambda templates: _json_array(templates, "    ")), "  ")
    return f'{{\n  "params": {params},\n  "axes": {_json_array(axes, "  ")},\n  "columns": {columns},\n  "data": {data}\n}}\n'


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
    while value <= hi + 1e-9 * step and len(ticks) <= TICKS:
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
    """Render a multi-curve line chart as a standalone SVG document."""
    if not series:
        raise ValueError("at least one series is required")
    x_lo = min(float(np.min(s.x)) for s in series)
    x_hi = max(float(np.max(s.x)) for s in series)
    y_lo = min(float(np.min(s.y)) for s in series)
    y_hi = max(float(np.max(s.y)) for s in series)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

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

    def text(x, y, content, size=12, anchor="middle", extra=None):
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
