"""The pure parts of ``tools/bit_diff.py``: outputs as text, the parameter, closed, sweep, routes, writers and chart
batteries' emitters, the comparison of two trees' items and its report.

Nothing here unpacks a tree or runs a battery in a subprocess; the script is loaded from its file, as ``tools`` is not
a package.
"""

import ast
import hashlib
import importlib.util
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from toptrap import serialize
from toptrap.closed_form import resurrection_time, survival_probability, tau_of_ratio, transition_probability
from toptrap.geometry import confinement_advisor
from toptrap.integrate import evolve_instantaneous_basis, evolve_lab_frame, evolve_rotating_frame
from toptrap.spin import DriveParams, adiabaticity_parameter
from toptrap.sweep import QUANTITIES

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bit_diff", ROOT / "tools" / "bit_diff.py")
bit_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bit_diff)


def refuse():
    raise ValueError("x must be finite, got nan")


def test_outcome_is_the_float_hex_or_the_refusal():
    assert bit_diff.outcome(lambda: 0.1) == (0.1).hex()
    assert bit_diff.outcome(refuse) == "ValueError: x must be finite, got nan"


def test_outcome_takes_a_text_for_other_results():
    assert bit_diff.outcome(lambda: [1, 2], text=repr) == "[1, 2]"
    assert bit_diff.outcome(refuse, text=repr) == "ValueError: x must be finite, got nan"


def test_route_items_name_each_route_and_digest_its_probabilities():
    """Three items per drive, in route order, each the sha256 of the route's survival then transition bytes over
    ROUTE_SAMPLES samples of ROUTE_PERIODS Rabi periods; the same seed gives the same items."""
    items = list(bit_diff.route_items(3))
    assert items == list(bit_diff.route_items(3))
    routes = (evolve_instantaneous_basis, evolve_lab_frame, evolve_rotating_frame)
    assert len(items) == 9
    for (key, output), route in zip(items, routes * 3):
        name, *drive = ast.literal_eval(key)
        assert name == route.__name__
        assert 1e-3 <= drive[0] <= 1e3 and 1e-3 <= drive[1] <= 1e3 and 0.0 <= drive[2] <= math.pi
        p = DriveParams(*drive)
        span = bit_diff.ROUTE_PERIODS * 2.0 * math.pi / p.omega_bar
        series = route(p, np.linspace(0.0, span, bit_diff.ROUTE_SAMPLES))
        assert re.fullmatch("sha256 [0-9a-f]{64}", output) and output == bit_diff.series_digest(series)
    assert len({output for _, output in items}) == len(items)


def test_parameter_items_cover_each_element_drive_then_the_sweep_column():
    """One item per distinct (omega0, omega, theta) of the element battery, in its order, then one per point of the
    seeded n^3 sweep grid, whose column has the bits of the scalar parameter; the same seed gives the same items."""
    items = list(bit_diff.parameter_items(3))
    assert items == list(bit_diff.parameter_items(3))
    drives = list(dict.fromkeys(drive[:3] for drive in bit_diff.element_drives()))
    assert len(drives) == 20_000 + 9 * 7 * 5 and len(items) == len(drives) + 27
    for (key, output), drive in zip(items, drives):
        assert ast.literal_eval(key) == ("adiabaticity_parameter", *drive)
        assert output == bit_diff.outcome(lambda: adiabaticity_parameter(DriveParams(*drive)))
    assert any(output.startswith("ValueError: omega0 and omega must keep the adiabaticity parameter") for _, output in items)
    for key, output in items[len(drives):]:
        name, *drive = ast.literal_eval(key)
        assert name == "run_sweep" and 1e-3 <= drive[0] <= 1e3 and 1e-3 <= drive[1] <= 1e3 and 0.0 <= drive[2] <= math.pi
        assert output == adiabaticity_parameter(DriveParams(*drive)).hex()


def test_closed_items_cover_both_kernels_at_each_time():
    """Per drive, the scalar survival, transition and confinement ratio at each of CLOSED_TIMES, then probabilities
    over the times without and with the last, each the direct call's float.hex or refusal; the array's bits are the
    scalar ones.  The default drives are the element battery's distinct ones; the times include 0 and a phase that
    overflows.  The same drives give the same items."""
    drives = bit_diff.distinct_drives()
    assert drives == list(dict.fromkeys(drive[:3] for drive in bit_diff.element_drives())) and len(drives) == 20_315
    drives = drives[:3] + drives[20_000:]  # three random drives and the extreme grid
    items = list(bit_diff.closed_items(drives))
    assert items == list(bit_diff.closed_items(drives))
    times = bit_diff.CLOSED_TIMES
    assert times[0] == 0.0 and len(items) == len(drives) * (3 * len(times) + 2)
    calls = (survival_probability, transition_probability, lambda p, t: confinement_advisor(p, t).ratio)
    items = iter(items)
    for drive in drives:
        scalars = []
        for t in times:
            for call, (key, output) in zip(calls, items):
                assert ast.literal_eval(key)[1:] == (*drive, t)
                assert output == bit_diff.outcome(lambda: call(DriveParams(*drive), t))
                scalars.append(output)
        for ts in (times[:-1], times):
            key, output = next(items)
            assert ast.literal_eval(key) == ("probabilities", *drive, ts)
            if output.startswith("ValueError"):  # a scalar call's refusal at one of the times
                assert output in scalars[0::3][: len(ts)]
            else:
                survival, transition = np.reshape(output.split(), (2, len(ts)))
                assert list(survival) == scalars[0::3][: len(ts)] and list(transition) == scalars[1::3][: len(ts)]
    outputs = [output for _, output in bit_diff.closed_items(drives)]
    assert any(output.startswith("ValueError: t must keep the phase wbar t/2 finite") for output in outputs)
    assert any(output.startswith("ValueError: omega0 and omega must keep omega_bar finite") for output in outputs)


def scalar_quantity(quantity, point):
    """``quantity`` at one sweep point by the scalar API: DriveParams and its closed-form functions, or tau_of_ratio
    at an x; omega0 = x * omega where x is given."""
    x, theta = point.get("x"), point["theta"]
    if quantity == "tau" and x is not None:
        return tau_of_ratio(x, theta)
    p = DriveParams(point["omega0"] if x is None else x * point["omega"], point["omega"], theta)
    return {
        "survival": lambda: survival_probability(p, point["t"]),
        "transition": lambda: transition_probability(p, point["t"]),
        "tau": lambda: resurrection_time(p).tau,
        "adiabaticity": lambda: adiabaticity_parameter(p),
        "omega_bar": lambda: p.omega_bar,
    }[quantity]()


def test_sweep_items_give_each_point_the_scalar_bits_or_a_refusal():
    """Per spec, all five quantities and then each alone: the four seeded layouts, then a t axis over CLOSED_TIMES but
    the last at each extreme drive and at each extreme x.  A point's values carry the scalar API's bits; a refused sweep
    gives every point one refusal, which a scalar call makes at one of its points, or the overflow of omega0 = x * omega
    that only a sweep forms.  The same seed gives the same items."""
    specs = list(bit_diff.sweep_specs(3))
    sets = [QUANTITIES, *((q,) for q in QUANTITIES)]
    extreme = 9 * 7 * 5 + 8 * 7 * 5
    assert [label for label, _ in specs] == [*(label for label in bit_diff.SWEEP_LAYOUTS for _ in sets), *["extreme"] * 6 * extreme]
    assert [spec.quantities for _, spec in specs] == sets * (4 + extreme)
    for label, spec in specs:
        axes, fixed = bit_diff.SWEEP_LAYOUTS.get(label, (("t",), None))
        assert tuple(a.name for a in spec.axes) == axes and (fixed is None or tuple(spec.fixed) == fixed)
    assert bit_diff.CLOSED_TIMES[:-1] == (0.0, 5e-324, 1.0, 1e5)
    emitted = list(bit_diff.sweep_items(3))
    assert emitted == list(bit_diff.sweep_items(3))
    assert len(emitted) == 4 * 6 * 27 + 6 * extreme * 4
    items = iter(emitted)
    for label, spec in specs:
        outputs, scalars = [], []
        for key, output in itertools.islice(items, math.prod(len(a.values) for a in spec.axes)):
            found, quantities, point = ast.literal_eval(key)
            assert (found, quantities) == (label, spec.quantities)
            assert point.keys() == {a.name for a in spec.axes} | spec.fixed.keys()
            outputs.append(output)
            scalars.append([bit_diff.outcome(lambda: scalar_quantity(q, point)) for q in quantities])
        if outputs[0].startswith("ValueError"):
            refused = {s for row in scalars for s in row if s.startswith("ValueError")}
            assert set(outputs) == {outputs[0]}
            assert outputs[0] in refused or outputs[0].startswith("ValueError: x and omega must keep omega0 = x * omega")
        else:
            assert outputs == [" ".join(row) for row in scalars]
    outputs = [output for _, output in emitted]
    for message in (
        "t must keep the phase wbar t/2 finite",
        "omega0 must be finite and > 0, got 0.0",
        "omega0 and omega must keep omega_bar finite",
        "resurrection undefined",
        "x and omega must keep omega0 = x * omega finite",
    ):
        assert any(output.startswith(f"ValueError: {message}") for output in outputs)


def test_writer_items_digest_both_writers_on_each_table():
    """Two items per table, to_csv then to_json, each the sha256 of the writer's text; the tables cross the writers'
    block edges in every layout, hold NaN, +-inf and -0.0 values, and put column entries on and off their axes."""
    tables = list(bit_diff.writer_tables())
    items = list(bit_diff.writer_items())
    assert items == list(bit_diff.writer_items())
    assert [key for key, _ in tables] == [(layout, n) for layout in bit_diff.WRITER_LAYOUTS for n in bit_diff.WRITER_ROWS]
    assert {n % serialize._BLOCK for n in bit_diff.WRITER_ROWS if n} == {0, 1, 5, serialize._BLOCK - 1}
    assert len(items) == 2 * len(tables)
    for (key, table), csv_item, json_item in zip(tables, items[::2], items[1::2]):
        for (name, output), write in ((csv_item, serialize.to_csv), (json_item, serialize.to_json)):
            assert ast.literal_eval(name) == (write.__name__, *key)
            assert output == "sha256 " + hashlib.sha256(write(table).encode()).hexdigest()
        if len(table.rows) < serialize._BLOCK:
            continue
        values = table.rows.view(np.uint64)
        for special in (math.nan, math.inf, -math.inf, -0.0):
            assert np.isin(values, np.array([special]).view(np.uint64)).any()
        for j, name in enumerate(table.columns):
            on = [np.isin(table.rows[:, j], axis) for axis_name, axis in table.axes if axis_name == name and len(axis)]
            assert not on or (on[0].any() and (key[0] == "the axis" or not on[0].all()))
    assert len({output for _, output in items}) == len(items)


def test_chart_items_digest_each_chart_or_give_its_refusal():
    """One item per chart, the sha256 of render_line_chart's text or its refusal; every layout has curves across the
    points' block edges, only the x window at the largest float is refused, and each layout is as its name says."""
    charts = list(bit_diff.charts())
    items = list(bit_diff.chart_items())
    assert items == list(bit_diff.chart_items())
    assert [key for key, _ in charts] == [(layout, n) for layout in bit_diff.CHART_LAYOUTS for n in bit_diff.CHART_POINTS]
    assert {n % serialize._BLOCK for n in bit_diff.CHART_POINTS} == {0, 1, 2, 5, serialize._BLOCK - 1}
    for ((layout, n), series), (name, output) in zip(charts, items):
        assert ast.literal_eval(name) == ("render_line_chart", layout, n)
        assert [(len(s.x), len(s.y)) for s in series] == [(n, n)] * 2
        if layout == "refused":
            with pytest.raises(ValueError, match="wider than the largest float") as refusal:
                serialize.render_line_chart(series)
            assert output == f"ValueError: {refusal.value}"
            continue
        assert output == "sha256 " + hashlib.sha256(serialize.render_line_chart(series).encode()).hexdigest()
        values = [series[0].x, *(s.y for s in series)]
        if layout == "flat":
            assert len(np.unique(np.concatenate(values[1:]))) == 1
        elif layout == "ulp-wide":
            assert all(np.ptp(v) in (0.0, math.ulp(v.min())) for v in values)
        elif n > 2:
            assert np.ptp(np.log10(np.abs(series[0].y))) > 100
    assert len({output for _, output in items}) == len(items)


def test_series_digest_covers_both_columns_in_order():
    series = evolve_rotating_frame(DriveParams(1.0, 1.5, 1.0), np.linspace(0.0, 1.0, 5))
    swapped = type(series)(series.times, series.transition, series.survival, series.method)
    assert bit_diff.series_digest(series) != bit_diff.series_digest(swapped)


def test_extreme_grid_has_the_stated_size():
    grid = (bit_diff.GRID_OMEGA0, bit_diff.GRID_OMEGA, bit_diff.GRID_THETA, bit_diff.GRID_T_DT)
    assert [len(axis) for axis in grid] == [9, 7, 5, 5]


def test_compare_lists_only_differing_outputs_in_order():
    base = [["a", "0x1.0p+0"], ["b", "ValueError: no"], ["c", "0x1.8p+0"]]
    change = [["a", "0x1.0p+0"], ["b", "0x0.0p+0"], ["c", "0x1.8000000000001p+0"]]
    differing = [("b", "ValueError: no", "0x0.0p+0"), ("c", "0x1.8p+0", "0x1.8000000000001p+0")]
    assert bit_diff.compare(base, change) == differing
    assert bit_diff.compare(base, base) == []


def test_compare_refuses_different_inputs():
    with pytest.raises(ValueError, match="different inputs"):
        bit_diff.compare([["a", "x"]], [["b", "x"]])


def test_ulps_apart_only_between_finite_floats():
    assert bit_diff.ulps_apart((1.5).hex(), (1.5 + 2 * 2**-52).hex()) == 2.0
    assert bit_diff.ulps_apart((0.0).hex(), (5e-324).hex()) == 1.0
    assert bit_diff.ulps_apart("ValueError: no", (1.0).hex()) is None
    assert bit_diff.ulps_apart((float("inf")).hex(), (1.0).hex()) is None
    assert bit_diff.ulps_apart("exit 0, sha256 ab", "exit 0, sha256 cd") is None


def test_report_counts_differences_and_shows_the_first():
    diffs = [(f"k{i}", (1.0).hex(), (1.0 + 2**-52 * (i + 1)).hex()) for i in range(4)]
    diffs.append(("r", "ValueError: no", "0x0.0p+0"))
    summary, *shown = bit_diff.report("element", 100, diffs, shown=2)
    assert summary == "element: 100 compared, 5 differ, widest 4 ulp over 4 float pairs"
    assert shown == [f"  k0: {(1.0).hex()} -> {(1.0 + 2**-52).hex()}", f"  k1: {(1.0).hex()} -> {(1.0 + 2**-51).hex()}"]
    assert bit_diff.report("cli", 14, []) == ["cli: 14 compared, 0 differ"]
