"""Bit-for-bit comparison of a base revision with the working tree, battery by battery.

    python3 tools/bit_diff.py --base HEAD~1
    python3 tools/bit_diff.py --base HEAD~1 --battery element --shown 10

``--base`` is a git revision of the repository this script sits in, unpacked with ``git archive`` into a temporary
directory; the change is a copy of this checkout's working tree there (both from ``tools/bench_pairs.py``).  Each
battery runs in a fresh process in each tree: this script, with ``--emit NAME`` and that tree's ``src`` first on
``PYTHONPATH``, prints every item of the battery as [inputs, output].  An output is the ``float.hex`` of a float (of
each float, for arrays), the type and message of an exception (a refusal compares as its message), the sha256 of a
route's probabilities, or the exit code and sha256 of the CLI's stdout bytes.  For each battery the report gives the
number of items compared, the number whose outputs differ, the largest distance in ulp between two differing floats,
and the first differing inputs.

Batteries:

* ``element``: ``adiabaticity_matrix_element`` on 20,000 seeded random drives (omega0 and omega log-uniform in
  [1e-3, 1e3], theta uniform in [0, pi], half at t = 0, default dt) and on the 1,575-drive extreme grid below;
* ``parameter``: ``adiabaticity_parameter`` on each distinct drive of the element battery, and ``run_sweep``'s
  adiabaticity column on a seeded 8,000-point grid (omega0 and omega log-uniform in [1e-3, 1e3], theta uniform in
  [0, pi]);
* ``closed``: on each distinct drive of the element battery, scalar ``survival_probability`` and
  ``transition_probability`` and ``confinement_advisor``'s ratio (the time as the escape time) at each of the times
  0, 5e-324, 1, 1e5 and the largest float, whose phase wbar t/2 overflows for wbar > 2, then ``probabilities`` over
  the array of those times without and with the largest float;
* ``sweep``: ``run_sweep`` tables, one item per grid point, with all five quantities and with each alone: on seeded
  8,000-point grids over (omega0, omega, theta), (omega, theta, t), (x, theta, t) and (x, omega, theta), and over the
  times 0, 5e-324, 1 and 1e5 at each drive of the extreme grid and at each x in {0, 5e-324, 1e-300, 0.5, 1, 2, 1e300,
  the largest float} with each omega and theta of that grid;
* ``atoms``: the ``field_at`` components, ``larmor_at`` and ``field_angle_at`` on a seeded 100,000-atom cloud in the
  ``cloud_scan`` trap of ``bench/workloads.py``, drawn as that workload draws its atoms;
* ``routes``: ``evolve_instantaneous_basis``, ``evolve_lab_frame`` and ``evolve_rotating_frame`` at the default
  tolerances on 1,000 seeded random drives (omega0 and omega log-uniform in [1e-3, 1e3], theta uniform in [0, pi]),
  each over 64 samples of 3 Rabi periods; an output is the sha256 of the survival and transition bytes;
* ``writers``: the sha256 of ``to_csv`` and ``to_json`` text on seeded 3-column tables of 0, 1, 4095, 4096, 4097
  and 3 * 4096 + 5 rows, across the writers' 4,096-row blocks, in three axis layouts: the axis is the first column, as
  ``evolve``'s ``t`` is; a tiled and a repeated axis with some entries off them, as ``fig`` and ``tau`` write them;
  and an axis shorter than the table.  About 5% of the values, axes included, are NaN, +-inf or -0.0;
* ``cli``: stdout of fixed ``evolve`` (closed and all), ``tau``, ``fig`` (csv and json) and ``adiabatic`` commands.

Standard library and numpy only.  The script changes nothing in either tree; its directory is removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATTERIES = ("element", "parameter", "closed", "sweep", "atoms", "routes", "writers", "cli")

FLOAT_MIN, FLOAT_MAX = sys.float_info.min, sys.float_info.max
GRID_OMEGA0 = (5e-324, 1.5e-323, 1e-310, FLOAT_MIN, 1e-300, 1.0, 1e155, 1e300, 1.7e308)
GRID_OMEGA = (0.0, 5e-324, 1e-308, 1e-3, 1.0, 1e300, 1.7e308)
GRID_THETA = (0.0, 1e-8, 1.0, math.pi / 2, math.pi)
GRID_T_DT = ((0.0, None), (1.0, None), (1e300, None), (0.0, 5e-324), (1.0, 1e-3))
CLOSED_TIMES = (0.0, 5e-324, 1.0, 1e5, FLOAT_MAX)
GRID_X = (0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 1e300, FLOAT_MAX)
# Per seeded sweep grid: its axes, then its fixed inputs.
SWEEP_LAYOUTS = {
    "drive axes": (("omega0", "omega", "theta"), ("t",)),
    "time axis": (("omega", "theta", "t"), ("omega0",)),
    "x axis": (("x", "theta", "t"), ("omega",)),
    "x and omega axes": (("x", "omega", "theta"), ("t",)),
}
ROUTE_DRIVES, ROUTE_SAMPLES, ROUTE_PERIODS = 1000, 64, 3.0
WRITER_ROWS = (0, 1, 4095, 4096, 4097, 3 * 4096 + 5)
WRITER_LAYOUTS = ("the axis", "tiled and repeated", "short axis")
SWEEP_AXIS = 20
CLOUD_TRAP = dict(a0=1.0, b0=1e-3, omega=2.0 * math.pi * 7e3, gamma=4.4e10, mu=9.274e-24, mass=1.443e-25)
DRIVE = ["--omega0", "1", "--omega", "1.5", "--theta", "1"]
COMMANDS = (
    ["evolve", *DRIVE, "--t-max", "20", "--samples", "2001"],
    ["evolve", *DRIVE, "--t-max", "20", "--samples", "2001", "--format", "json"],
    ["evolve", *DRIVE, "--t-max", "20", "--samples", "201", "--method", "all"],
    ["tau", "--theta", "0.5", "--theta", "2", "--steps", "101"],
    ["tau", "--theta", "0.5", "--theta", "2", "--steps", "101", "--format", "json"],
    *(["fig", which, "--format", fmt] for which in ("fig1", "fig2", "fig3") for fmt in ("csv", "json")),
    ["adiabatic", *DRIVE],
    ["adiabatic", "--omega0", "2", "--omega", "0.1", "--theta", "0.3", "--t", "5", "--format", "json"],
    ["adiabatic", "--omega0", "1e-300", "--omega", "1e-3", "--theta", "1", "--dt", "1e-3"],
)


def outcome(call, text=lambda value: float(value).hex()) -> str:
    """``text`` of ``call()``, by default a float's ``float.hex``, or its exception as ``Type: message``."""
    try:
        return text(call())
    except Exception as exc:  # a refusal is an output to compare
        return f"{type(exc).__name__}: {exc}"


def element_drives():
    """The element battery's inputs (omega0, omega, theta, t, dt): the seeded random drives at the default dt (None),
    then the extreme grid."""
    import numpy as np

    rng = np.random.default_rng(2024)
    n = 20_000
    omega0, omega = 10.0 ** rng.uniform(-3.0, 3.0, n), 10.0 ** rng.uniform(-3.0, 3.0, n)
    theta, t = rng.uniform(0.0, math.pi, n), np.where(np.arange(n) % 2 == 0, 0.0, rng.uniform(0.0, 10.0, n))
    for drive in zip(omega0.tolist(), omega.tolist(), theta.tolist(), t.tolist()):
        yield (*drive, None)
    for omega0 in GRID_OMEGA0:
        for omega in GRID_OMEGA:
            for theta in GRID_THETA:
                for t, dt in GRID_T_DT:
                    yield omega0, omega, theta, t, dt


def distinct_drives():
    """Each distinct (omega0, omega, theta) of the element battery, in its order."""
    return list(dict.fromkeys(drive[:3] for drive in element_drives()))


def element_items():
    from toptrap.spin import DriveParams, adiabaticity_matrix_element

    for drive in element_drives():
        yield repr(drive), outcome(lambda: adiabaticity_matrix_element(DriveParams(*drive[:3]), *drive[3:]))


def parameter_items(n: int = SWEEP_AXIS):
    """``adiabaticity_parameter`` on each distinct drive of the element battery, then ``run_sweep``'s adiabaticity
    column on a seeded n x n x n grid (omega0 and omega log-uniform in [1e-3, 1e3], theta uniform in [0, pi])."""
    import numpy as np
    from toptrap.spin import DriveParams, adiabaticity_parameter
    from toptrap.sweep import Axis, SweepSpec, run_sweep

    for drive in distinct_drives():
        yield repr(("adiabaticity_parameter", *drive)), outcome(lambda: adiabaticity_parameter(DriveParams(*drive)))
    rng = np.random.default_rng(2024)
    values = {"omega0": 10.0 ** rng.uniform(-3.0, 3.0, n), "omega": 10.0 ** rng.uniform(-3.0, 3.0, n)}
    values["theta"] = rng.uniform(0.0, math.pi, n)
    result = run_sweep(SweepSpec(axes=[Axis(name, v) for name, v in values.items()], quantities=("adiabaticity",)))
    for row in result.table.tolist():
        yield repr(("run_sweep", *row[:3])), row[3].hex()


def closed_items(drives=None):
    """The closed form on ``drives``, by default :func:`distinct_drives`: per drive, the scalar survival, transition and
    confinement ratio at each of CLOSED_TIMES, then ``probabilities`` over CLOSED_TIMES without and with its last."""
    import numpy as np
    from toptrap.closed_form import probabilities, survival_probability, transition_probability
    from toptrap.geometry import confinement_advisor
    from toptrap.spin import DriveParams

    def hex_pair(pair):
        return " ".join(v.hex() for array in pair for v in array.tolist())

    scalar = {
        "survival_probability": survival_probability,
        "transition_probability": transition_probability,
        "confinement_advisor": lambda p, t: confinement_advisor(p, t).ratio,
    }
    for drive in distinct_drives() if drives is None else drives:
        for t in CLOSED_TIMES:
            for name, call in scalar.items():
                yield repr((name, *drive, t)), outcome(lambda: call(DriveParams(*drive), t))
        for times in (CLOSED_TIMES[:-1], CLOSED_TIMES):
            yield repr(("probabilities", *drive, times)), outcome(lambda: probabilities(*drive, np.array(times)), hex_pair)


def sweep_specs(n: int = SWEEP_AXIS):
    """(label, SweepSpec) of the sweep battery, each layout with all five quantities, then with each alone: the seeded
    n x n x n grids of SWEEP_LAYOUTS (omega0, omega and x log-uniform in [1e-3, 1e3], theta uniform in [0, pi], t in
    [0, 50]), then a t axis over CLOSED_TIMES but the last at each drive of the extreme grid, and at each x of GRID_X
    with each omega and theta of that grid."""
    import numpy as np
    from toptrap.sweep import QUANTITIES, Axis, SweepSpec

    rng = np.random.default_rng(2024)

    def log(k):
        return 10.0 ** rng.uniform(-3.0, 3.0, k)

    draw = {"omega0": log, "omega": log, "x": log, "theta": lambda k: rng.uniform(0.0, math.pi, k),
            "t": lambda k: rng.uniform(0.0, 50.0, k)}
    sets = (QUANTITIES, *((q,) for q in QUANTITIES))
    for label, (axes, fixed) in SWEEP_LAYOUTS.items():
        axes = [Axis(name, np.sort(draw[name](n))) for name in axes]
        fixed = {name: draw[name](1).item() for name in fixed}
        for quantities in sets:
            yield label, SweepSpec(axes=axes, quantities=quantities, fixed=fixed)
    times = (Axis("t", np.array(CLOSED_TIMES[:-1])),)
    for names, grid in ((("omega0", "omega", "theta"), GRID_OMEGA0), (("x", "omega", "theta"), GRID_X)):
        for drive in itertools.product(grid, GRID_OMEGA, GRID_THETA):
            for quantities in sets:
                yield "extreme", SweepSpec(axes=times, quantities=quantities, fixed=dict(zip(names, drive)))


def sweep_items(n: int = SWEEP_AXIS):
    """Per spec of :func:`sweep_specs`, one item per grid point, in table order: the point's quantity values, or the
    sweep's refusal."""
    from toptrap.sweep import run_sweep

    def hex_rows(result):
        return [" ".join(v.hex() for v in row) for row in result.table[:, len(result.axes):].tolist()]

    for label, spec in sweep_specs(n):
        names = [a.name for a in spec.axes]
        found = outcome(lambda: run_sweep(spec), hex_rows)
        points = list(itertools.product(*(a.values.tolist() for a in spec.axes)))
        for point, output in zip(points, [found] * len(points) if isinstance(found, str) else found):
            yield repr((label, spec.quantities, {**dict(zip(names, point)), **spec.fixed})), output


def atom_items():
    import numpy as np
    from toptrap.geometry import TrapConfig, field_angle_at, field_at, larmor_at

    config = TrapConfig(**CLOUD_TRAP)
    rng, r0, n = np.random.default_rng(2024), config.b0 / config.a0, 100_000
    radius, angle = 0.5 * r0 * np.sqrt(rng.uniform(0.0, 1.0, n)), rng.uniform(0.0, 2.0 * math.pi, n)
    z, t = rng.uniform(-2.0 * r0, 2.0 * r0, n), rng.uniform(0.0, 2.0 * math.pi / config.omega, n)
    for x, y, z, t in zip((radius * np.cos(angle)).tolist(), (radius * np.sin(angle)).tolist(), z.tolist(), t.tolist()):
        field = field_at(config, x, y, z, t)
        yield repr(("field_at", x, y, z, t)), " ".join(v.hex() for v in (field.bx, field.by, field.bz))
        yield repr(("larmor_at", x, y, t, z)), outcome(lambda: larmor_at(config, x, y, t, z))
        yield repr(("field_angle_at", x, y, t, z)), outcome(lambda: field_angle_at(config, x, y, t, z))


def series_digest(series) -> str:
    """The sha256 of a TimeSeries' survival bytes, then its transition bytes."""
    return "sha256 " + hashlib.sha256(series.survival.tobytes() + series.transition.tobytes()).hexdigest()


def route_items(n: int = ROUTE_DRIVES):
    import numpy as np
    from toptrap.integrate import evolve_instantaneous_basis, evolve_lab_frame, evolve_rotating_frame
    from toptrap.spin import DriveParams

    rng = np.random.default_rng(2024)
    omega0, omega = 10.0 ** rng.uniform(-3.0, 3.0, n), 10.0 ** rng.uniform(-3.0, 3.0, n)
    for drive in zip(omega0.tolist(), omega.tolist(), rng.uniform(0.0, math.pi, n).tolist()):
        p = DriveParams(*drive)
        ts = np.linspace(0.0, ROUTE_PERIODS * 2.0 * math.pi / p.omega_bar, ROUTE_SAMPLES)
        for route in (evolve_instantaneous_basis, evolve_lab_frame, evolve_rotating_frame):
            yield repr((route.__name__, *drive)), outcome(lambda: route(p, ts), series_digest)


def writer_tables():
    """((layout, rows), Table) for each layout of WRITER_LAYOUTS and each row count of WRITER_ROWS, seeded by both."""
    import numpy as np
    from toptrap.serialize import Table

    def draw(rng, shape):  # magnitudes from 1e-300 to 1e300, about 5% of them NaN, +-inf or -0.0
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape)
        special = rng.random(shape) < 0.05
        values[special] = rng.choice([math.nan, math.inf, -math.inf, -0.0], special.sum())
        return values

    for index, layout in enumerate(WRITER_LAYOUTS):
        for n in WRITER_ROWS:
            rng = np.random.default_rng([2024, index, n])
            rows, columns = draw(rng, (n, 3)), ("t", "survival", "transition")
            if layout == "the axis":
                axes = (("t", rows[:, 0].copy()),)
            elif layout == "tiled and repeated":
                columns, omega, theta = ("omega", "theta", "survival"), draw(rng, 7), draw(rng, 5)
                on = rng.random((n, 2)) < 0.99  # the rest keep their own values, off the axes
                rows[:, 0] = np.where(on[:, 0], np.resize(omega, n), rows[:, 0])
                rows[:, 1] = np.where(on[:, 1], np.repeat(theta, -(-n // len(theta)))[:n], rows[:, 1])
                axes = (("omega", omega), ("theta", theta))
            else:
                axes = (("t", rows[: n // 3, 0].copy()),)
            yield (layout, n), Table(columns=columns, rows=rows, params={"layout": layout, "rows": n}, axes=axes)


def text_digest(text: str) -> str:
    """The sha256 of ``text``'s UTF-8 bytes."""
    return "sha256 " + hashlib.sha256(text.encode()).hexdigest()


def writer_items():
    from toptrap.serialize import to_csv, to_json

    for key, table in writer_tables():
        for write in (to_csv, to_json):
            yield repr((write.__name__, *key)), outcome(lambda: write(table), text_digest)


def cli_items():
    from toptrap.cli import main

    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        yield " ".join(argv), f"exit {code}, {text_digest(out.getvalue())}"


EMITTERS = {
    "element": element_items, "parameter": parameter_items, "closed": closed_items, "sweep": sweep_items,
    "atoms": atom_items, "routes": route_items, "writers": writer_items, "cli": cli_items,
}


def emit(battery: str):
    """Print the battery's items as one JSON document, with the file of the toptrap that made them."""
    import toptrap

    json.dump({"module": toptrap.__file__, "items": list(EMITTERS[battery]())}, sys.stdout)


def items_of(tree: str, battery: str) -> list:
    """The battery's items, emitted by a fresh process on ``tree``'s sources."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit", battery], env=env, cwd=tree,
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bit_diff: the {battery} battery exited {done.returncode} in {tree}")
    found = json.loads(done.stdout)
    if not os.path.realpath(found["module"]).startswith(os.path.realpath(tree) + os.sep):
        raise SystemExit(f"bit_diff: the {battery} battery in {tree} imported {found['module']}")
    return found["items"]


def ulps_apart(a: str, b: str) -> float | None:
    """The distance between two ``float.hex`` outputs in ulp of the larger, or None unless both are finite floats."""
    try:
        x, y = float.fromhex(a), float.fromhex(b)
    except (TypeError, ValueError):
        return None
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    return abs(x - y) / math.ulp(max(abs(x), abs(y)))


def compare(base: list, change: list) -> list[tuple[str, str, str]]:
    """(inputs, base output, change output) for every item whose outputs differ; both sides must list the same
    inputs in the same order."""
    if [key for key, _ in base] != [key for key, _ in change]:
        raise ValueError("the two trees emitted different inputs")
    return [(key, old, new) for (key, old), (_, new) in zip(base, change) if old != new]


def report(battery: str, count: int, diffs: list[tuple[str, str, str]], shown: int = 5) -> list[str]:
    """The battery's summary line, then up to ``shown`` differing items as inputs: base -> change."""
    distances = [d for d in (ulps_apart(old, new) for _, old, new in diffs) if d is not None]
    widest = f", widest {max(distances):.3g} ulp over {len(distances)} float pairs" if distances else ""
    lines = [f"{battery}: {count} compared, {len(diffs)} differ{widest}"]
    lines += [f"  {key}: {old} -> {new}" for key, old, new in diffs[:shown]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--battery", action="append", choices=BATTERIES, help="repeatable; default all")
    parser.add_argument("--shown", type=int, default=5, help="differing items listed per battery (default 5)")
    parser.add_argument("--emit", choices=BATTERIES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.emit)
        return 0
    if not args.base:
        parser.error("--base is required")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_pairs import copy_worktree, unpack

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below on a kill too
    scratch = tempfile.mkdtemp(prefix="bit_diff-")
    try:
        base = unpack(args.base, os.path.join(scratch, "base"))
        change = copy_worktree(os.path.join(scratch, "change"))
        print(f"base {args.base}, change working tree")
        for battery in args.battery or BATTERIES:
            old, new = items_of(base, battery), items_of(change, battery)
            print("\n".join(report(battery, len(old), compare(old, new), args.shown)), flush=True)
    finally:
        shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
