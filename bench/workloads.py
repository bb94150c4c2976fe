"""The four benchmark workloads: seeded inputs, one operation each, output checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  ``make(name, seed, scratch)`` returns
one *round*, a list of :class:`Op`; the runner repeats whole rounds.  A
round mixes the input sizes the program's cost depends on in fixed
proportions, and the seed draws the parameter values, so two seeds give
rounds of nearly equal cost.

Operations reach the program through module attributes looked up at call
time (``tt.sweep.run_sweep``), so the traced run can wrap them.  Checks call
the library the same way; the tracer records nothing outside an operation,
so checks never show up in a trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable
from xml.etree import ElementTree as ET

import numpy as np

import toptrap as tt


class CheckError(AssertionError):
    """An operation returned an output that fails its independent check."""


def require(condition, message: str):
    if not condition:
        raise CheckError(message)


def bit_equal(a, b) -> bool:
    """True when two float arrays have the same shape and identical bits."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _rng(seed: int) -> np.random.Generator:
    # Any integer seed is accepted, negative ones included.
    return np.random.default_rng(seed % 2**64)


@dataclass
class Op:
    """One timed operation.

    ``run`` calls the program and returns its output; ``check`` raises
    :class:`CheckError` if that output is wrong and may return the largest
    closed-form-versus-route difference it measured (or None).  ``units``
    is the work the operation completes, in the workload's unit.
    """

    label: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], float | None]


# --------------------------------------------------------------------------
# param_map: closed-form sweeps over a 3-axis grid of a fixed point count.

PARAM_MAP_POINTS = 32768
# (omega values, theta values): 4 to 1024 distinct drive combos per sweep.
PARAM_MAP_LEVELS = ((2, 2), (4, 4), (8, 8), (16, 16), (32, 32))
PARAM_MAP_REPEATS = 2
PARAM_MAP_CHECKED_ROWS = 10
NORMALISATION_TOL = 1e-14
PROPAGATOR_TOL = 1e-12


def _param_map(seed: int, scratch: str) -> list[Op]:
    rng = _rng(seed)
    ops = []
    for n_omega, n_theta in PARAM_MAP_LEVELS * PARAM_MAP_REPEATS:
        n_t = PARAM_MAP_POINTS // (n_omega * n_theta)
        spec = tt.sweep.SweepSpec(
            axes=(
                tt.sweep.Axis("omega", np.sort(rng.uniform(0.05, 4.0, n_omega))),
                tt.sweep.Axis("theta", np.sort(rng.uniform(0.01, math.pi - 0.01, n_theta))),
                tt.sweep.Axis("t", np.sort(rng.uniform(0.0, 50.0, n_t))),
            ),
            quantities=("survival", "transition", "omega_bar", "adiabaticity"),
            fixed={"omega0": 1.0},
        )
        rows = rng.choice(PARAM_MAP_POINTS, PARAM_MAP_CHECKED_ROWS, replace=False)

        def check(result, rows=rows):
            require(result.table.shape == (PARAM_MAP_POINTS, 7), f"table shape {result.table.shape}")
            s = result.column("survival")
            q = result.column("transition")
            dev = float(np.max(np.abs(s + q - 1.0)))
            require(dev <= NORMALISATION_TOL, f"survival + transition off 1 by {dev:.3e}")
            omega, theta, t = (result.column(name) for name in ("omega", "theta", "t"))
            for i in rows:
                p = tt.spin.DriveParams(1.0, float(omega[i]), float(theta[i]))
                psi = tt.integrate.rotating_frame_propagator(p, float(t[i])) @ tt.spin.eigensystem_at(p, 0.0).vec_minus
                pair = tt.spin.eigensystem_at(p, float(t[i]))
                s_ref = abs(np.vdot(pair.vec_minus, psi)) ** 2
                q_ref = abs(np.vdot(pair.vec_plus, psi)) ** 2
                delta = max(abs(s[i] - s_ref), abs(q[i] - q_ref))
                require(delta <= PROPAGATOR_TOL, f"row {i}: propagator differs by {delta:.3e}")
            return None

        ops.append(
            Op(
                label=f"run_sweep {n_omega}x{n_theta}x{n_t}",
                units=PARAM_MAP_POINTS,
                run=lambda spec=spec: tt.sweep.run_sweep(spec),
                check=check,
            )
        )
    return ops


# --------------------------------------------------------------------------
# cloud_scan: scalar calls for each atom of a cloud inside a TOP trap.

# Batch sizes of a round, 1000 atoms on average.
CLOUD_BATCH_SIZES = (600, 800, 1000, 1200, 1400) * 2
CLOUD_TRAP = dict(a0=1.0, b0=1e-3, omega=2.0 * math.pi * 7e3, gamma=4.4e10, mu=9.274e-24, mass=1.443e-25)


def _cloud_scan(seed: int, scratch: str) -> list[Op]:
    rng = _rng(seed)
    config = tt.geometry.TrapConfig(**CLOUD_TRAP)
    r0 = config.b0 / config.a0
    ops = []
    for n in CLOUD_BATCH_SIZES:
        radius = 0.5 * r0 * np.sqrt(rng.uniform(0.0, 1.0, n))
        angle = rng.uniform(0.0, 2.0 * math.pi, n)
        # |z| up to 2 r0 tilts the local field from near +z to near -z.
        atoms = list(
            zip(
                (radius * np.cos(angle)).tolist(),
                (radius * np.sin(angle)).tolist(),
                rng.uniform(-2.0 * r0, 2.0 * r0, n).tolist(),
                rng.uniform(0.0, 2.0 * math.pi / config.omega, n).tolist(),
                rng.uniform(0.0, 1e-4, n).tolist(),
                rng.uniform(1e-5, 1e-3, n).tolist(),
            )
        )

        def run(atoms=atoms):
            geometry, spin, closed = tt.geometry, tt.spin, tt.closed_form
            s, q, confined = [], [], 0
            for x, y, z, t, dwell, escape in atoms:
                omega0 = geometry.larmor_at(config, x, y, t, z)
                theta = geometry.field_angle_at(config, x, y, t, z)
                p = spin.DriveParams(omega0, config.omega, theta)
                s.append(closed.survival_probability(p, dwell))
                q.append(closed.transition_probability(p, dwell))
                confined += geometry.confinement_advisor(p, escape).confined
            return s, q, confined

        def check(output, n=n):
            s, q, confined = output
            require(len(s) == len(q) == n, "missing atoms")
            dev = float(np.max(np.abs(np.add(s, q) - 1.0)))
            require(dev <= NORMALISATION_TOL, f"survival + transition off 1 by {dev:.3e}")
            return None

        ops.append(Op(label=f"cloud batch of {n}", units=n, run=run, check=check))
    return ops


# --------------------------------------------------------------------------
# oracle_check: sweeps with the instantaneous-basis ODE oracle switched on.

# (omega values, theta values, mean Rabi periods spanned by the t axis).
# The solver's steps per combo scale with the periods, so each level costs
# about the same for every seed; a round has each level twice.
ORACLE_LEVELS = ((3, 3, 1.0), (3, 4, 1.0), (3, 3, 2.0), (3, 4, 2.0), (4, 4, 3.0))
ORACLE_REPEATS = 2
ORACLE_TIMES = 16
ORACLE_TOL = 1e-8


def _oracle_check(seed: int, scratch: str) -> list[Op]:
    rng = _rng(seed)
    ops = []
    for n_omega, n_theta, periods in ORACLE_LEVELS * ORACLE_REPEATS:
        omega = np.sort(rng.uniform(0.3, 2.0, n_omega))
        theta = np.sort(rng.uniform(0.3, 2.9, n_theta))
        w, th = np.meshgrid(omega, theta)
        mean_rabi = float(np.mean(tt.spin.omega_bar_of(1.0, w, th)))
        t_max = periods * 2.0 * math.pi / mean_rabi
        spec = tt.sweep.SweepSpec(
            axes=(
                tt.sweep.Axis("omega", omega),
                tt.sweep.Axis("theta", theta),
                tt.sweep.Axis("t", np.sort(rng.uniform(0.0, t_max, ORACLE_TIMES))),
            ),
            quantities=("survival", "transition"),
            fixed={"omega0": 1.0},
            oracle=True,
        )
        n_combos = n_omega * n_theta

        def check(result, n_combos=n_combos):
            require(result.table.shape[0] == n_combos * ORACLE_TIMES, "missing rows")
            delta = max(
                float(np.max(np.abs(result.column(q) - result.column(f"{q}_ode"))))
                for q in ("survival", "transition")
            )
            require(delta <= ORACLE_TOL, f"ODE columns differ by {delta:.3e}")
            return delta

        ops.append(
            Op(
                label=f"oracle sweep {n_omega}x{n_theta}x{ORACLE_TIMES}, {periods} periods",
                units=n_combos,
                run=lambda spec=spec: tt.sweep.run_sweep(spec),
                check=check,
            )
        )
    return ops


# --------------------------------------------------------------------------
# cli_session: in-process CLI invocations with captured output.

CLI_CLOSED_SAMPLES = 20000
CLI_ALL_SAMPLES = 2001
CLI_ALL_PERIODS = 6.0
CROSS_METHOD_TOL = 1e-6
FIGURE_SERIES = {"fig1": 4, "fig2": 4, "fig3": 2}
DELTA_LINE = re.compile(r"max cross-method delta: (\S+)")


def _num(value: float) -> str:
    return repr(float(value))


def _cli_session(seed: int, scratch: str) -> list[Op]:
    import toptrap.cli  # noqa: F401  (not imported by the package itself)
    import toptrap.serialize  # noqa: F401

    rng = _rng(seed)
    lib = _CliReference()
    ops = []

    for which in FIGURE_SERIES:
        ops.append(_cli_op(["fig", which], "csv", lambda which=which: lib.figure(which)))
        ops.append(_cli_op(["fig", which, "--format", "json"], "json", lambda which=which: lib.figure(which)))
        path = os.path.join(scratch, f"{which}.svg")
        ops.append(_svg_op(["fig", which, "--format", "svg", "--out", path], path, FIGURE_SERIES[which]))

    # tau also as json: sixteen invocations put the two svg charts in the
    # middle of a session sorted by time, so the median lands inside one
    # kind of operation rather than between two.
    thetas = (float(rng.uniform(0.2, 1.5)), float(rng.uniform(1.7, 3.0)))
    tau = ["tau", "--theta", _num(thetas[0]), "--theta", _num(thetas[1])]
    ops.append(_cli_op(tau, "csv", lambda: lib.tau(thetas)))
    ops.append(_cli_op(tau + ["--format", "json"], "json", lambda: lib.tau(thetas)))

    p = (1.0, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.3, 2.8)))
    t_max = float(rng.uniform(10.0, 30.0))
    closed = ["evolve", "--omega0", _num(p[0]), "--omega", _num(p[1]), "--theta", _num(p[2]),
              "--t-max", _num(t_max), "--samples", str(CLI_CLOSED_SAMPLES)]
    ops.append(_cli_op(closed, "csv", lambda: lib.evolve(p, t_max, CLI_CLOSED_SAMPLES, ("closed",))))
    ops.append(
        _cli_op(closed + ["--format", "json"], "json", lambda: lib.evolve(p, t_max, CLI_CLOSED_SAMPLES, ("closed",)))
    )

    q = (1.0, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.3, 2.8)))
    t_all = CLI_ALL_PERIODS * 2.0 * math.pi / float(tt.spin.omega_bar_of(*q))
    every = ("closed", "ode", "lab", "rot")
    ops.append(
        _cli_op(
            ["evolve", "--omega0", _num(q[0]), "--omega", _num(q[1]), "--theta", _num(q[2]),
             "--t-max", _num(t_all), "--samples", str(CLI_ALL_SAMPLES), "--method", "all"],
            "csv",
            lambda: lib.evolve(q, t_all, CLI_ALL_SAMPLES, every),
            cross_method=True,
        )
    )

    a = (1.0, float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.1, 3.0)))
    ops.append(
        _json_op(
            ["adiabatic", "--omega0", _num(a[0]), "--omega", _num(a[1]), "--theta", _num(a[2]), "--format", "json"],
            lambda: lib.adiabatic(a),
        )
    )

    trap = dict(CLOUD_TRAP, b0=float(rng.uniform(5e-4, 2e-3)), omega=float(rng.uniform(2e4, 6e4)))
    ops.append(
        _json_op(
            ["geometry"] + [arg for key in ("a0", "b0", "omega", "gamma", "mu", "mass")
                            for arg in (f"--{key}", _num(trap[key]))] + ["--format", "json"],
            lambda: lib.geometry(trap),
        )
    )

    return ops


def _invoke(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tt.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _require_ok(argv, code, err):
    require(code == 0, f"toptrap {' '.join(argv[:2])} exited {code}: {err.strip()[-200:]}")


def _cli_op(argv, fmt, reference, cross_method=False) -> Op:
    """A csv or json table command; a csv is read back through parse_csv."""

    def run():
        code, text, err = _invoke(argv)
        table = tt.serialize.parse_csv(text) if fmt == "csv" and code == 0 else None
        return code, text, err, table

    def check(output):
        code, text, err, table = output
        _require_ok(argv, code, err)
        columns, expected = reference()
        if fmt == "csv":
            got_columns, got = table.columns, table.rows
        else:
            payload = json.loads(text)
            got_columns, got = tuple(payload["columns"]), np.array(payload["data"], dtype=float)
        require(tuple(got_columns) == tuple(columns), f"columns {got_columns} != {columns}")
        require(bit_equal(got, expected), f"{fmt} values of {argv[0]} differ from the library result")
        if not cross_method:
            return None
        match = DELTA_LINE.search(err)
        require(match is not None, "no cross-method delta on stderr")
        delta = float(match.group(1))
        require(delta <= CROSS_METHOD_TOL, f"cross-method delta {delta:.3e}")
        return delta

    return Op(label=" ".join(argv[:2] + [fmt]), units=1, run=run, check=check)


def _svg_op(argv, path, n_series) -> Op:
    def check(output):
        code, _, err = output
        _require_ok(argv, code, err)
        try:
            root = ET.parse(path).getroot()
        except ET.ParseError as exc:
            raise CheckError(f"{path}: not XML: {exc}") from exc
        require(root.tag.endswith("svg"), f"root element {root.tag}")
        curves = [e for e in root.iter() if e.tag.endswith("polyline")]
        require(len(curves) == n_series, f"{len(curves)} curves, expected {n_series}")
        return None

    return Op(label=" ".join(argv[:2] + ["svg"]), units=1, run=lambda: _invoke(argv), check=check)


def _json_op(argv, reference) -> Op:
    def check(output):
        code, text, err = output
        _require_ok(argv, code, err)
        payload = json.loads(text)
        expected = reference()
        for key, value in expected.items():
            require(payload.get(key) == value, f"{argv[0]} {key}: {payload.get(key)!r} != {value!r}")
        return None

    return Op(label=f"{argv[0]} json", units=1, run=lambda: _invoke(argv), check=check)


class _CliReference:
    """Library results the CLI outputs must reproduce, each computed once.

    The same round repeats, so results are cached by their inputs.
    """

    def __init__(self):
        self._cache = {}

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def figure(self, which):
        def compute():
            result = tt.sweep.figure_dataset(which)
            return result.columns, result.table

        return self._cached(("fig", which), compute)

    def tau(self, thetas):
        def compute():
            xs = np.linspace(0.0, 4.0, 401)
            blocks = [np.column_stack([xs, np.full_like(xs, th), tt.closed_form.tau_of_ratio(xs, th)]) for th in thetas]
            return ("x", "theta", "tau"), np.vstack(blocks)

        return self._cached(("tau", thetas), compute)

    def evolve(self, params, t_max, samples, methods):
        routes = {
            "ode": tt.integrate.evolve_instantaneous_basis,
            "lab": tt.integrate.evolve_lab_frame,
            "rot": tt.integrate.evolve_rotating_frame,
        }

        def compute():
            p = tt.spin.DriveParams(*params)
            ts = np.linspace(0.0, t_max, samples)
            columns, data = ["t"], [ts]
            for name in methods:
                if name == "closed":
                    pair = (tt.closed_form.survival_probability(p, ts), tt.closed_form.transition_probability(p, ts))
                else:
                    series = routes[name](p, ts)
                    pair = (series.survival, series.transition)
                suffix = f"_{name}" if len(methods) > 1 else ""
                columns += [f"survival{suffix}", f"transition{suffix}"]
                data += list(pair)
            return tuple(columns), np.column_stack(data)

        return self._cached(("evolve", params, t_max, samples, methods), compute)

    def adiabatic(self, params):
        p = tt.spin.DriveParams(*params)
        return {
            "parameter": tt.spin.adiabaticity_parameter(p),
            "matrix_element": tt.spin.adiabaticity_matrix_element(p, 0.0, None),
        }

    def geometry(self, trap):
        g = tt.geometry
        config = g.TrapConfig(**trap)
        return {
            "r0": g.circle_of_death_radius(config),
            "k": g.spring_constant(config),
            "omega_osc": g.oscillation_frequency(config),
            "satisfied": g.hierarchy_check(config).satisfied,
        }


@dataclass(frozen=True)
class Workload:
    """A named workload, the unit of its work, and how big one operation is."""

    name: str
    unit: str
    size: str
    make: Callable[[int, str], list[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("param_map", "points", f"{PARAM_MAP_POINTS}-point sweeps, 4 to 1024 combos", _param_map),
        Workload("cloud_scan", "atoms", "batches of 600 to 1400 atoms, 1000 on average", _cloud_scan),
        Workload("oracle_check", "combos", f"9-16 combos x {ORACLE_TIMES} times with the ODE oracle", _oracle_check),
        Workload("cli_session", "invocations", "16 invocations per session", _cli_session),
    )
}


def make(name: str, seed: int, scratch: str) -> list[Op]:
    """One round of the named workload, generated from ``seed``."""
    return WORKLOADS[name].make(seed, scratch)
