"""Parameter sweeps over the drive parameters, with optional ODE oracle columns.

A sweep is a cartesian grid over up to three named axes drawn from ``omega0``, ``omega``, ``theta``, ``t`` and ``x``
(the ratio omega0/omega), with the remaining inputs supplied as fixed values.  Quantities are evaluated with the
closed-form module; when ``oracle`` is set, survival and transition pick up companion columns from the
instantaneous-basis ODE integration and the run aborts if any point disagrees beyond ``ORACLE_TOL``.  No grid of
inputs is built: each axis, checked once, reaches the kernels along its own grid dimension.  The table is allocated
once, column-major, and every column is written in place as one contiguous block: the closed-form survival and
transition by the kernel, from one omega_bar per drive and a phase built in the transition column, their ODE
companions by the oracle, which groups the points by drive with one sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# survival/transition_probability are unused here but kept: bench/spans.py wraps them at this module.
from .closed_form import _probabilities, survival_probability, tau_of_drive, tau_of_ratio, transition_probability  # noqa: F401
from .integrate import evolve_instantaneous_basis
from .spin import FINITE, FLOAT_MAX, POSITIVE, DriveParams, adiabaticity_of, check, check_domain, check_finite, omega_bar_of

AXIS_NAMES = ("omega0", "omega", "theta", "t", "x")
QUANTITIES = ("survival", "transition", "tau", "adiabaticity", "omega_bar")
# Per group of quantities: the inputs it reads, then those of them that x = omega0/omega stands in for.
_INPUTS = {
    ("survival", "transition"): (("theta", "t", "omega"), ("omega0",)),
    ("adiabaticity", "omega_bar"): (("theta", "omega"), ("omega0",)),
    ("tau",): (("theta",), ("omega0", "omega")),
}
MAX_GRID_POINTS = 10_000_000
GRID_SIZE = (f"in [2, {MAX_GRID_POINTS}]", lambda n: (n >= 2) & (n <= MAX_GRID_POINTS))  # points on one axis or t grid
ORACLE_TOL = 1e-8


class OracleMismatchError(RuntimeError):
    """Closed form and ODE oracle disagree beyond ORACLE_TOL."""


@dataclass(frozen=True)
class Axis:
    """One sweep dimension: a named, ordered set of at least two values."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {self.name!r}; expected one of {AXIS_NAMES}")
        values = check(self.name, *FINITE, self.values)  # the values as given: an int beyond the floats is named
        if values.ndim != 1 or len(values) < 2:
            raise ValueError(f"axis {self.name!r} needs at least 2 values")
        object.__setattr__(self, "values", values)

    @classmethod
    def linear(cls, name: str, start: float, stop: float, steps: int) -> "Axis":
        return cls._spaced(name, start, stop, steps)

    @classmethod
    def log(cls, name: str, start: float, stop: float, steps: int) -> "Axis":
        return cls._spaced(name, start, stop, steps, log=True)

    @classmethod
    def _spaced(cls, name, start, stop, steps, log=False):
        names = [f"axis {name!r} {end}" for end in ("steps", "start", "stop")]
        return cls(name, grid_values(start, stop, steps, names, f"start = {start!r}", log))


def grid_values(start, stop, steps, names, low=None, log=False):
    """``steps`` values from ``start`` to ``stop``, evenly spaced or, if ``log``, geometrically: the one grid rule.

    ``names``: what the messages call the steps, the start (finite, and > 0 for a log grid) and the stop, which must
    be > ``low``, by default ``<start name> = <start>``.  ``linspace`` overflows where stop - start does: the grid
    report names both ends."""
    steps_name, start_name, stop_name = names
    check(steps_name, *GRID_SIZE, steps)
    check(start_name, *(POSITIVE if log else FINITE), start)
    check(stop_name, f"finite and > {low or f'{start_name} = {start!r}'}", lambda v: (v > start) & (v <= FLOAT_MAX), stop)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is named below
        values = (np.geomspace if log else np.linspace)(start, stop, steps)
    check_finite("the grid", values, **{start_name: start, stop_name: stop})
    return values


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition: axes, quantities to tabulate, fixed inputs, oracle flag."""

    axes: tuple[Axis, ...] = ()
    quantities: tuple[str, ...] = ("survival",)
    fixed: dict = field(default_factory=dict)
    oracle: bool = False

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "quantities", tuple(self.quantities))
        object.__setattr__(self, "fixed", dict(self.fixed))
        if len(self.axes) > 3:
            raise ValueError("at most 3 axes are supported")
        axis_names = [a.name for a in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ValueError(f"duplicate axis names: {axis_names}")
        if not self.quantities:
            raise ValueError("at least one quantity is required")
        for k, q in enumerate(self.quantities):
            if q not in QUANTITIES:
                raise ValueError(f"unknown quantity {q!r}; expected one of {QUANTITIES}")
            if q in self.quantities[:k]:
                raise ValueError(f"quantity {q!r} is repeated")
        for name, value in self.fixed.items():
            if name not in AXIS_NAMES:
                raise ValueError(f"unknown fixed parameter {name!r}")
            if name in axis_names:
                raise ValueError(f"{name!r} is both an axis and a fixed parameter")
            check(name, *FINITE, value)
        provided = set(axis_names) | set(self.fixed)
        if "x" in provided and "omega0" in provided:
            raise ValueError("give either x = omega0/omega or omega0, not both")
        self._require(provided)

    def _require(self, provided: set):
        for group, (reads, x_stands_for) in _INPUTS.items():
            if any(q in group for q in self.quantities):
                for names in (reads, () if "x" in provided else x_stands_for):
                    if missing := [n for n in names if n not in provided]:
                        raise ValueError(f"{'/'.join(group)} requires {missing}; give them as axes or fixed values")
        if self.oracle and not any(q in ("survival", "transition") for q in self.quantities):
            raise ValueError("oracle columns apply only to survival/transition sweeps")


@dataclass(frozen=True)
class SweepResult:
    """One table row per grid point, axis columns first; column-major, so ``column`` is a contiguous view.

    ``params``: the fixed inputs, the tool, method and oracle, a canned figure's name and description."""

    axes: tuple[Axis, ...]
    columns: tuple[str, ...]
    table: np.ndarray
    params: dict

    def column(self, name: str) -> np.ndarray:
        return self.table[:, self.columns.index(name)]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the requested quantities over the grid defined by ``spec``.

    Deterministic: identical specs give bit-identical tables.  Grids above ``MAX_GRID_POINTS`` are refused, and so,
    before any quantity, is an axis (as a 1-d array) or fixed value outside ``spin.DOMAIN``; omega0 = x * omega is
    checked where a quantity first reads it.  With ``spec.oracle`` set, survival and transition gain ``*_ode``
    companion columns and an :class:`OracleMismatchError` names the worst point if the agreement bound ``ORACLE_TOL``
    is violated.
    """
    shape = tuple(len(a.values) for a in spec.axes)
    n = math.prod(shape)
    if n > MAX_GRID_POINTS:
        raise ValueError(f"grid too large: {n} points exceeds the {MAX_GRID_POINTS} limit")

    inputs = {name: float(check_domain(name, value)) for name, value in spec.fixed.items()}
    for k, a in enumerate(spec.axes):
        inputs[a.name] = check_domain(a.name, a.values).reshape((-1,) + (1,) * (len(shape) - k - 1))
    omega0, omega, theta, t, x = (inputs.get(name) for name in AXIS_NAMES)
    if omega0 is None and x is not None and omega is not None:
        with np.errstate(over="ignore"):  # an overflowing product is named with x and omega below
            omega0 = x * omega
        check_finite("omega0 = x * omega", omega0, x=x, omega=omega)

    pair = ("survival", "transition")
    columns = [a.name for a in spec.axes]
    for q in spec.quantities:
        columns += [q, f"{q}_ode"] if spec.oracle and q in pair else [q]
    table = np.empty((len(columns),) + shape)  # C-ordered by column: returned transposed, column-major
    col = {name: table[j, ...] for j, name in enumerate(columns)}  # [j, ...]: an array even for a 0-d grid
    wb = None  # omega_bar over the drive grid, once: for the kernel and the omega_bar column
    if any(q in pair for q in spec.quantities):
        if "omega0" not in inputs:  # omega0 = x * omega is checked where a quantity first reads it: tau may take x = 0
            inputs["omega0"] = check_domain("omega0", omega0)
        wb = omega_bar_of(omega0, omega, theta)
        _probabilities(omega, theta, t, wb, col.get("survival"), col.get("transition"))
    if spec.oracle:
        _oracle_series(omega0, omega, theta, t, col.get("survival_ode"), col.get("transition_ode"))
    for q in spec.quantities:
        if q in pair:
            if spec.oracle:
                _check_oracle(q, col[q], col[f"{q}_ode"], spec.axes)
        elif q == "tau":
            col[q][...] = tau_of_ratio(x, theta) if x is not None else tau_of_drive(omega0, omega, theta)[1]
        else:  # adiabaticity or omega_bar: its kernel names omega0 and omega where it overflows
            if "omega0" not in inputs:
                inputs["omega0"] = check_domain("omega0", omega0)
            kernel = adiabaticity_of if q == "adiabaticity" else omega_bar_of
            col[q][...] = wb if q == "omega_bar" and wb is not None else kernel(omega0, omega, theta)
    for a in spec.axes:  # last: the kernel's temporaries are freed before these pages are first touched
        col[a.name][...] = inputs[a.name]

    table = table.reshape(len(columns), n).T
    if not np.all(np.isfinite(table)):
        raise ValueError("sweep produced non-finite values")
    from . import __version__

    params = {**spec.fixed, "tool": f"toptrap {__version__}", "method": "closed-form"}
    if spec.oracle:
        params["oracle"] = "instantaneous-basis"
    return SweepResult(axes=spec.axes, columns=tuple(columns), table=table, params=params)


def _oracle_series(omega0, omega, theta, t, survival, transition):
    """Solve the ODE into the C-contiguous grid arrays ``survival``, ``transition`` (None: scratch), once per drive.

    One lexsort orders the points by (omega0, omega, theta), then by t, ties in index order: each run of equal drives
    is one solve over its ascending times."""
    grid = np.stack(np.broadcast_arrays(omega0, omega, theta, t)).reshape(4, -1)
    order = np.lexsort(grid[::-1])  # the last key, omega0, sorts first
    grid = grid[:, order]
    starts = (np.flatnonzero(np.any(grid[:3, 1:] != grid[:3, :-1], axis=0)) + 1).tolist()
    survival, transition = (np.empty(len(order)) if c is None else c.reshape(-1) for c in (survival, transition))
    for lo, hi in zip([0, *starts], [*starts, len(order)]):
        o0, om, th, _ = grid[:, lo].tolist()  # Python floats: the stepper's scalars are not numpy's
        series = evolve_instantaneous_basis(DriveParams(o0, om, th), grid[3, lo:hi])
        survival[order[lo:hi]], transition[order[lo:hi]] = series.survival, series.transition


def _check_oracle(quantity, closed, oracle, axes):
    delta = np.abs(closed - oracle)
    worst = np.unravel_index(np.argmax(delta), delta.shape)
    if delta[worst] > ORACLE_TOL:
        where = ", ".join(f"{a.name}={a.values[i]:.6g}" for a, i in zip(axes, worst))
        raise OracleMismatchError(
            f"{quantity}: closed form and ODE differ by {delta[worst]:.3e} "
            f"(> {ORACLE_TOL:.0e}) at {where or 'the fixed point'}"
        )


FIG1_THETAS = (0.3, 0.7, 1.2, math.pi / 2)
FIG3_THETAS = (math.pi / 6, 3 * math.pi / 4)


def figure_dataset(which: str) -> SweepResult:
    """Canned sweeps behind the three standard plots.

    ``fig1``/``fig2``: survival versus time (units of 1/omega0, so omega0 is
    fixed at 1) at drive ratios omega/omega0 = 1.5 and 0.5 for a documented
    set of angles.  ``fig3``: resurrection time tau versus x = omega0/omega
    for one angle on each side of pi/2.  The choices are recorded in the
    result params.
    """
    if which in ("fig1", "fig2"):
        ratio = 1.5 if which == "fig1" else 0.5
        spec = SweepSpec(
            axes=(Axis("theta", np.array(FIG1_THETAS)), Axis.linear("t", 0.0, 15.0, 1501)),
            quantities=("survival",),
            fixed={"omega0": 1.0, "omega": ratio},
        )
        description = (
            f"survival vs t (units 1/omega0) at omega = {ratio} omega0, "
            f"theta in {[round(v, 6) for v in FIG1_THETAS]}"
        )
    elif which == "fig3":
        spec = SweepSpec(
            axes=(Axis("theta", np.array(FIG3_THETAS)), Axis.linear("x", 0.0, 4.0, 401)),
            quantities=("tau",),
        )
        description = (
            "resurrection time tau (units 2*pi/omega) vs x = omega0/omega, "
            f"theta in {[round(v, 6) for v in FIG3_THETAS]}"
        )
    else:
        raise ValueError(f"unknown figure {which!r}; expected fig1, fig2 or fig3")
    result = run_sweep(spec)
    result.params.update(figure=which, description=description)
    return result
