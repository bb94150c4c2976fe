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
from dataclasses import dataclass, field
from xml.etree import ElementTree as ET

import numpy as np

from . import __version__
from .sweep import SweepResult

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 720, 480  # chart size, px
TICKS = 6  # tick count aimed at per axis


@dataclass
class Table:
    """Column-labelled float table with a provenance echo."""

    columns: tuple[str, ...]
    rows: np.ndarray
    params: dict = field(default_factory=dict)
    axes: tuple[tuple[str, np.ndarray], ...] = ()

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def table_from_sweep(result: SweepResult) -> Table:
    axes = tuple((a.name, a.values) for a in result.axes)
    return Table(columns=result.columns, rows=result.table, params=dict(result.params), axes=axes)


def to_csv(table: Table) -> str:
    lines = [f"# toptrap {__version__}"]
    for key, value in table.params.items():
        lines.append(f"# {key} = {value}")
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> Table:
    """Inverse of :func:`to_csv`; header-echo values come back as strings."""
    params = {}
    columns: tuple[str, ...] | None = None
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                params[key.strip()] = value.strip()
            continue
        if columns is None:
            columns = tuple(part.strip() for part in line.split(","))
            continue
        rows.append([float(part) for part in line.split(",")])
    if columns is None:
        raise ValueError("no column header found in CSV text")
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(columns)))
    return Table(columns=columns, rows=data, params=params)


def to_json(table: Table) -> str:
    payload = {
        "params": {**{"tool": f"toptrap {__version__}"}, **table.params},
        "axes": [{"name": name, "values": np.asarray(v).tolist()} for name, v in table.axes],
        "columns": list(table.columns),
        "data": table.rows.tolist(),
    }
    return json.dumps(payload, indent=2) + "\n"


@dataclass(frozen=True)
class ChartSeries:
    """One polyline of the chart; ``dash`` is an SVG dash pattern or None."""

    label: str
    x: np.ndarray
    y: np.ndarray
    dash: str | None = None


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] with a 1-2-5 step."""
    if hi <= lo:
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
    while value <= hi + 1e-9 * step:
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

    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(WIDTH),
            "height": str(HEIGHT),
            "viewBox": f"0 0 {WIDTH} {HEIGHT}",
            "data-x-min": repr(x_lo),
            "data-x-max": repr(x_hi),
            "data-y-min": repr(y_lo),
            "data-y-max": repr(y_hi),
            "data-plot-left": repr(left),
            "data-plot-top": repr(top),
            "data-plot-width": repr(plot_w),
            "data-plot-height": repr(plot_h),
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

    for tick in _nice_ticks(x_lo, x_hi):
        x = px(tick)
        ET.SubElement(
            root,
            "line",
            {"x1": f"{x:.1f}", "y1": f"{top + plot_h:.1f}", "x2": f"{x:.1f}", "y2": f"{top + plot_h + 5:.1f}", "stroke": "#333333"},
        )
        text(x, top + plot_h + 18, _format_tick(tick), size=11)
    for tick in _nice_ticks(y_lo, y_hi):
        y = py(tick)
        ET.SubElement(
            root,
            "line",
            {"x1": f"{left - 5:.1f}", "y1": f"{y:.1f}", "x2": f"{left:.1f}", "y2": f"{y:.1f}", "stroke": "#333333"},
        )
        text(left - 8, y + 4, _format_tick(tick), size=11, anchor="end")

    for k, s in enumerate(series):
        attrs = {
            "fill": "none",
            "stroke": PALETTE[k % len(PALETTE)],
            "stroke-width": "1.5",
            "class": "curve",
            "points": " ".join(f"{px(xv):.3f},{py(yv):.3f}" for xv, yv in zip(s.x, s.y)),
        }
        if s.dash:
            attrs["stroke-dasharray"] = s.dash
        ET.SubElement(root, "polyline", attrs)

    legend_x = left + plot_w - 150.0
    legend_y = top + 14.0
    for k, s in enumerate(series):
        y = legend_y + 16.0 * k
        ET.SubElement(
            root,
            "line",
            {
                "x1": f"{legend_x:.1f}",
                "y1": f"{y - 4:.1f}",
                "x2": f"{legend_x + 24:.1f}",
                "y2": f"{y - 4:.1f}",
                "stroke": PALETTE[k % len(PALETTE)],
                "stroke-width": "1.5",
                **({"stroke-dasharray": s.dash} if s.dash else {}),
            },
        )
        text(legend_x + 30, y, s.label, size=11, anchor="start")

    if title:
        text(left + plot_w / 2.0, 18.0, title, size=14)
    if annotation:
        text(left + plot_w / 2.0, 31.0, annotation, size=10, extra={"fill": "#555555"})
    text(left + plot_w / 2.0, HEIGHT - 10.0, x_label, size=12)
    text(16.0, top + plot_h / 2.0, y_label, size=12, extra={"transform": f"rotate(-90 16 {top + plot_h / 2.0:.1f})"})

    return ET.tostring(root, encoding="unicode") + "\n"
