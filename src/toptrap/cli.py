"""Command-line front end: evolve, tau, fig, adiabatic and geometry subcommands.

Exit codes: 0 success, 2 usage or validation error, 3 internal integrity
failure (cross-method disagreement), 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .closed_form import survival_probability, tau_extremum, tau_of_ratio, transition_probability
from .geometry import TrapConfig, circle_of_death_radius, hierarchy_check, oscillation_frequency, spring_constant
from .integrate import (
    IntegrationError,
    IntegratorSettings,
    evolve_instantaneous_basis,
    evolve_lab_frame,
    evolve_rotating_frame,
)
from .serialize import ChartSeries, Table, render_line_chart, to_csv, to_json
from .spin import POSITIVE, DriveParams, adiabaticity_matrix_element, adiabaticity_parameter, check
from .sweep import OracleMismatchError, SweepResult, figure_dataset, grid_values

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTEGRITY = 3
EXIT_IO = 4

CROSS_METHOD_TOL = 1e-6


class IntegrityError(RuntimeError):
    """Cross-method disagreement beyond CROSS_METHOD_TOL."""


@functools.cache  # parse_args leaves the parser as it was, so one serves every main() call
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toptrap",
        description="Spin survival of a two-level atom in a time-orbiting-potential trap.",
    )
    parser.add_argument("--version", action="version", version=f"toptrap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    evolve = sub.add_parser("evolve", help="survival/transition time series")
    evolve.add_argument("--omega0", type=float, required=True, help="Larmor angular frequency, rad/s")
    evolve.add_argument("--omega", type=float, required=True, help="drive angular frequency, rad/s")
    evolve.add_argument("--theta", type=float, required=True, help="field polar angle, rad")
    evolve.add_argument("--t-max", type=float, required=True, help="end of the time grid, s")
    evolve.add_argument("--samples", type=int, required=True, help="number of grid samples")
    evolve.add_argument(
        "--method",
        choices=("closed", "ode", "lab", "all"),
        default="closed",
        help="closed form, instantaneous-basis ODE, lab-frame ODE, or all plus the rotating-frame propagator",
    )
    evolve.add_argument("--rel-tol", type=float, default=1e-10)
    evolve.add_argument("--abs-tol", type=float, default=1e-12)
    _output_flags(evolve)

    tau = sub.add_parser("tau", help="resurrection time versus x = omega0/omega")
    tau.add_argument("--theta", type=float, action="append", required=True, help="repeatable, rad, in (0, pi]")
    tau.add_argument("--x-min", type=float, default=0.0)
    tau.add_argument("--x-max", type=float, default=4.0)
    tau.add_argument("--steps", type=int, default=401)
    _output_flags(tau)

    fig = sub.add_parser("fig", help="canned figure datasets")
    fig.add_argument("which", choices=("fig1", "fig2", "fig3"))
    _output_flags(fig)

    adiabatic = sub.add_parser("adiabatic", help="adiabaticity report")
    adiabatic.add_argument("--omega0", type=float, required=True)
    adiabatic.add_argument("--omega", type=float, required=True)
    adiabatic.add_argument("--theta", type=float, required=True)
    adiabatic.add_argument("--t", type=float, default=0.0)
    adiabatic.add_argument("--dt", type=float, default=None, help="finite-difference step")
    adiabatic.add_argument("--threshold", type=float, default=0.1)
    _report_flags(adiabatic)

    geometry = sub.add_parser("geometry", help="trap scales and frequency hierarchy")
    geometry.add_argument("--a0", type=float, required=True, help="quadrupole gradient, T/m")
    geometry.add_argument("--b0", type=float, required=True, help="rotating-field magnitude, T")
    geometry.add_argument("--omega", type=float, required=True, help="rotation frequency, rad/s")
    geometry.add_argument("--gamma", type=float, required=True, help="gyromagnetic ratio, rad/(s*T)")
    geometry.add_argument("--mu", type=float, required=True, help="magnetic moment, J/T")
    geometry.add_argument("--mass", type=float, required=True, help="atomic mass, kg")
    geometry.add_argument("--margin", type=float, default=10.0, help="factor standing in for '<<'")
    _report_flags(geometry)

    return parser


def _output_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--out", default=None, help="output path; stdout when omitted (csv/json only)")
    sub.add_argument("--format", choices=("csv", "json", "svg"), default="csv")


def _report_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--out", default=None)


def _echo(args) -> dict:
    """The parameter echo of a table: the parsed arguments, command first, in parser order, without the output flags."""
    return {name: value for name, value in vars(args).items() if name not in ("out", "format")}


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_table(table: Table, args, series: list[ChartSeries], **labels):
    """Write ``table`` as csv or json, or chart ``series`` as svg with the chart ``labels``."""
    if args.format == "csv":
        _emit(to_csv(table), args.out)
    elif args.format == "json":
        _emit(to_json(table), args.out)
    elif args.out is None:
        raise ValueError("svg output requires --out")
    else:
        _emit(render_line_chart(series, **labels), args.out)


def _emit_report(args, fields: dict, lines: list[str]):
    """Write a report as indented JSON of ``fields`` or as the text ``lines``."""
    text = json.dumps(fields, indent=2) if args.format == "json" else "\n".join(lines)
    _emit(text + "\n", args.out)


_TAU_LABELS = {"x_label": "omega0/omega", "y_label": "tau (units of 2*pi/omega)"}


def _theta_curves(thetas, x, ys) -> list[ChartSeries]:
    """One curve per angle; obtuse angles, where tau has no interior maximum, are dashed."""
    return [
        ChartSeries(label=f"theta={theta:.4g}", x=x, y=y, dash="6,4" if theta > 0.5 * math.pi else None)
        for theta, y in zip(thetas, ys)
    ]


def _cmd_evolve(args) -> int:
    p = DriveParams(args.omega0, args.omega, args.theta)
    ts = grid_values(0.0, args.t_max, args.samples, ("samples", "t", "t-max"), "0")
    settings = IntegratorSettings(rel_tol=args.rel_tol, abs_tol=args.abs_tol)

    runners = {
        "closed": lambda: (survival_probability(p, ts), transition_probability(p, ts)),
        "ode": lambda: _pair(evolve_instantaneous_basis(p, ts, settings)),
        "lab": lambda: _pair(evolve_lab_frame(p, ts, settings)),
        "rot": lambda: _pair(evolve_rotating_frame(p, ts)),
    }
    wanted = ("closed", "ode", "lab", "rot") if args.method == "all" else (args.method,)
    results = {name: runners[name]() for name in wanted}
    columns: list[str] = ["t"]
    data = [ts]
    for name, pair in results.items():
        suffix = f"_{name}" if args.method == "all" else ""
        columns += [f"survival{suffix}", f"transition{suffix}"]
        data += pair

    if args.method == "all":
        delta = max(
            float(np.max(np.abs(results[name][i] - results["closed"][i])))
            for name in ("ode", "lab", "rot")
            for i in (0, 1)
        )
        print(f"max cross-method delta: {delta:.3e}", file=sys.stderr)
        if delta > CROSS_METHOD_TOL:
            raise IntegrityError(
                f"cross-method disagreement {delta:.3e} exceeds {CROSS_METHOD_TOL:.0e}"
            )

    table = Table(columns=tuple(columns), rows=np.column_stack(data), params=_echo(args), axes=(("t", ts),))
    series = [ChartSeries(label=f"survival ({name})", x=ts, y=results[name][0]) for name in wanted]
    if len(wanted) == 1:
        series.append(ChartSeries(label="transition", x=ts, y=results[wanted[0]][1], dash="6,4"))
    _emit_table(
        table,
        args,
        series,
        title="Weak-field-seeker survival",
        annotation=f"omega0={args.omega0:g}, omega={args.omega:g}, theta={args.theta:g}",
        x_label="t [s]",
        y_label="probability",
    )
    return EXIT_OK


def _pair(series):
    return series.survival, series.transition


def _cmd_tau(args) -> int:
    thetas = list(args.theta)
    check("theta", "in (0, pi]", lambda v: (v > 0.0) & (v <= math.pi), thetas)
    xs = grid_values(args.x_min, args.x_max, args.steps, ("steps", "x-min", "x-max"))
    step = xs[1] - xs[0]
    curves = tau_of_ratio(xs, np.array(thetas)[:, None])
    for theta, taus in zip(thetas, curves):
        if theta <= 0.5 * math.pi:
            x_star, tau_star = tau_extremum(theta)
            x_grid = float(xs[int(np.argmax(taus))])
            print(
                f"theta={theta:.6g}: analytic extremum (x*, tau*) = "
                f"({x_star:.6g}, {tau_star:.6g}); grid argmax at x = {x_grid:.6g}",
                file=sys.stderr,
            )
            if not (args.x_min - step <= x_star <= args.x_max + step):
                continue
            near_peak = taus >= taus.max() - 4 * np.spacing(taus.max())  # tau may tie, or be flat to rounding
            if not np.any(np.abs(xs[near_peak] - x_star) <= step):
                raise IntegrityError(
                    f"grid argmax {x_grid:.6g} disagrees with analytic x* {x_star:.6g} "
                    f"by more than one grid step {step:.3g}"
                )
        else:
            print(f"theta={theta:.6g}: monotone decreasing, no interior maximum", file=sys.stderr)

    params = {**_echo(args), "theta": ",".join(f"{v:g}" for v in thetas)}
    rows = np.column_stack([np.tile(xs, len(thetas)), np.repeat(thetas, len(xs)), curves.ravel()])
    table = Table(columns=("x", "theta", "tau"), rows=rows, params=params, axes=(("x", xs),))
    _emit_table(table, args, _theta_curves(thetas, xs, curves), title="Resurrection time", **_TAU_LABELS)
    return EXIT_OK


def table_from_sweep(result: SweepResult) -> Table:
    axes = tuple((a.name, a.values) for a in result.axes)
    return Table(columns=result.columns, rows=result.table, params=dict(result.params), axes=axes)


def _cmd_fig(args) -> int:
    result = figure_dataset(args.which)
    thetas, inner = (axis.values for axis in result.axes)
    if args.which == "fig3":
        quantity, labels = "tau", _TAU_LABELS
    else:
        quantity, labels = "survival", {"x_label": "t * omega0", "y_label": "survival probability"}
    curves = result.column(quantity).reshape(len(thetas), len(inner))
    _emit_table(
        table_from_sweep(result),
        args,
        _theta_curves(thetas, inner, curves),
        title=args.which,
        annotation=result.params["description"],
        **labels,
    )
    return EXIT_OK


def _cmd_adiabatic(args) -> int:
    p = DriveParams(args.omega0, args.omega, args.theta)
    parameter = adiabaticity_parameter(p)
    element = adiabaticity_matrix_element(p, args.t, args.dt)
    check("threshold", *POSITIVE, args.threshold)
    adiabatic = parameter < args.threshold
    fields = {
        "omega0": args.omega0,
        "omega": args.omega,
        "theta": args.theta,
        "parameter": parameter,
        "matrix_element": element,
        "threshold": args.threshold,
        "adiabatic": adiabatic,
    }
    verdict = "adiabatic" if adiabatic else "NOT adiabatic"
    lines = [
        f"adiabaticity parameter (omega/(2 omega0)) sin(theta): {parameter:.10g}",
        f"finite-difference matrix element:                     {element:.10g}",
        f"verdict (threshold {args.threshold:g}): {verdict}",
    ]
    _emit_report(args, fields, lines)
    return EXIT_OK


def _cmd_geometry(args) -> int:
    config = TrapConfig(
        a0=args.a0, b0=args.b0, omega=args.omega, gamma=args.gamma, mu=args.mu, mass=args.mass
    )
    report = hierarchy_check(config, args.margin)
    fields = {
        "r0": circle_of_death_radius(config),
        "k": spring_constant(config),
        "omega_osc": oscillation_frequency(config),
        "omega": report.omega,
        "omega0_ref": report.omega0_ref,
        "ratio_low": report.ratio_low,
        "ratio_high": report.ratio_high,
        "margin": report.margin,
        "satisfied": report.satisfied,
    }
    lines = [
        f"circle-of-death radius r0 = b0/a0: {fields['r0']:.10g} m",
        f"spring constant k = mu a0^2 / (2 b0): {fields['k']:.10g} N/m",
        f"oscillation frequency sqrt(k/m): {fields['omega_osc']:.10g} rad/s",
        f"drive frequency omega: {fields['omega']:.10g} rad/s",
        f"Larmor frequency at b0: {fields['omega0_ref']:.10g} rad/s",
        f"omega/omega_osc: {fields['ratio_low']:.10g}",
        f"omega0/omega: {fields['ratio_high']:.10g}",
        f"hierarchy omega_osc << omega << omega0 (margin {fields['margin']:g}): "
        + ("satisfied" if fields["satisfied"] else "NOT satisfied"),
    ]
    _emit_report(args, fields, lines)
    return EXIT_OK


_HANDLERS = {
    "evolve": _cmd_evolve,
    "tau": _cmd_tau,
    "fig": _cmd_fig,
    "adiabatic": _cmd_adiabatic,
    "geometry": _cmd_geometry,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (OracleMismatchError, IntegrityError, IntegrationError) as exc:
        print(f"toptrap: integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except ValueError as exc:
        print(f"toptrap: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"toptrap: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
