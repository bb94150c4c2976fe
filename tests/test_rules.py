"""The value rules outside the drive domain: every one is raised by ``spin.check`` in one format.

A value outside its rule reads ``<name> must be <rule>, got <value>``.  Each case below gives the entry
point, the bad value and the exact message.  Library cases also require the innermost traceback frame to
be ``spin.check``, so a hand-written copy of a rule fails here; CLI cases require exit 2 and
``toptrap: <message>`` on stderr.  Derived values that valid inputs push out of the float range (phases,
field magnitudes, trap scales, the matrix element) are raised the same way by ``spin.check_finite`` as
``<inputs> must keep <quantity> finite, got <name> = <value>``.  The boundary values each rule must still
accept close the file.
"""

import math
import re

import numpy as np
import pytest

from toptrap import spin
from toptrap.cli import EXIT_OK, EXIT_USAGE, main
from toptrap.closed_form import probabilities, resurrection_time, survival_probability, tau_extremum, tau_of_ratio
from toptrap.geometry import (
    FieldVector,
    TrapConfig,
    confinement_advisor,
    field_angle_at,
    field_at,
    hierarchy_check,
    larmor_at,
    spring_constant,
    zero_locus,
)
from toptrap.integrate import IntegratorSettings, evolve_rotating_frame, rotating_frame_propagator
from toptrap.spin import DriveParams, adiabaticity_matrix_element, check, hamiltonian_at
from toptrap.sweep import GRID_SIZE, MAX_GRID_POINTS, Axis, SweepSpec

TRAP = {"a0": 1.0, "b0": 1e-3, "omega": 4.4e4, "gamma": 4.4e10, "mu": 9.274e-24, "mass": 1.443e-25}
CONFIG = TrapConfig(**TRAP)
POINT = {"x": 1e-4, "y": 0.0, "z": 0.0, "t": 0.0}
P = DriveParams(1.0, 1.5, 1.0)
GRID_RULE = f"in [2, {MAX_GRID_POINTS}]"

# (entry point, call with the value under test, name, rule, values outside the rule besides nan and inf)
LIBRARY = [
    ("IntegratorSettings", lambda v: IntegratorSettings(rel_tol=v), "rel_tol", "finite and > 0", [0.0, -1e-10]),
    ("IntegratorSettings", lambda v: IntegratorSettings(abs_tol=v), "abs_tol", "in (0, rel_tol]", [0.0, 2e-10]),
    ("hamiltonian_at", lambda v: hamiltonian_at(P, v), "t", "finite", [-math.inf]),
    ("rotating_frame_propagator", lambda v: rotating_frame_propagator(P, np.array([1.0, v])), "t", "finite", [-math.inf]),
    *(
        ("TrapConfig", lambda v, n=n: TrapConfig(**{**TRAP, n: v}), n, "finite and > 0", [0.0, -1.0])
        for n in ("a0", "b0", "omega", "mu", "mass")
    ),
    ("TrapConfig", lambda v: TrapConfig(**{**TRAP, "gamma": v}), "gamma", "finite and != 0", [0.0, -math.inf]),
    *(
        (call.__name__, lambda v, n=n, call=call: call(CONFIG, **{**POINT, n: v}), n, "finite", [-math.inf])
        for call in (field_at, larmor_at, field_angle_at)
        for n in POINT
    ),
    ("zero_locus", lambda v: zero_locus(CONFIG, v), "t", "finite", [-math.inf]),
    ("hierarchy_check", lambda v: hierarchy_check(CONFIG, v), "margin", "finite and >= 1", [0.5]),
    ("confinement_advisor", lambda v: confinement_advisor(P, v), "escape_time", "finite and > 0", [0.0, -1.0]),
    ("adiabaticity_matrix_element", lambda v: adiabaticity_matrix_element(P, 0.0, v), "dt", "finite and > 0", [0.0]),
    ("tau_extremum", tau_extremum, "theta", "in (0, pi)", [0.0, math.pi]),
    ("Axis", lambda v: Axis("theta", [0.5, v]), "theta", "finite", [-math.inf]),
    ("Axis.linear", lambda v: Axis.linear("t", 0.0, 1.0, v), "axis 't' steps", GRID_RULE, [1, MAX_GRID_POINTS + 1]),
    ("Axis.linear", lambda v: Axis.linear("t", v, 1.0, 3), "axis 't' start", "finite", [-math.inf]),
    ("Axis.linear", lambda v: Axis.linear("t", 0.5, v, 3), "axis 't' stop", "finite and > start = 0.5", [0.5, 0.0]),
    ("Axis.log", lambda v: Axis.log("omega", v, 1.0, 3), "axis 'omega' start", "finite and > 0", [0.0]),
    ("SweepSpec", lambda v: SweepSpec(quantities=("tau",), fixed={"x": 1.0, "theta": v}), "theta", "finite", [-math.inf]),
]

EVOLVE = ["evolve", "--omega0", "1", "--omega", "1.5", "--theta", "1", "--t-max", "2", "--samples", "3"]
ADIABATIC = ["adiabatic", "--omega0", "1", "--omega", "1.5", "--theta", "1"]
GEOMETRY = ["geometry"] + [arg for name, value in TRAP.items() for arg in (f"--{name}", repr(value))]

# (command line, flag, name, rule, values outside the rule besides nan and inf; ints for an int flag)
CLI = [
    (EVOLVE, "--samples", "samples", GRID_RULE, [1, MAX_GRID_POINTS + 1]),
    (EVOLVE, "--t-max", "t-max", "finite and > 0", [0.0]),
    (EVOLVE, "--rel-tol", "rel_tol", "finite and > 0", [0.0]),
    (EVOLVE, "--abs-tol", "abs_tol", "in (0, rel_tol]", [1e-9]),
    (["tau", "--theta", "1"], "--theta", "theta", "in (0, pi]", [0.0, 3.2]),
    (["tau", "--theta", "1"], "--steps", "steps", GRID_RULE, [1]),
    (["tau", "--theta", "1"], "--x-min", "x-min", "finite", [-math.inf]),
    (["tau", "--theta", "1", "--x-min", "2"], "--x-max", "x-max", "finite and > x-min = 2.0", [1.0, 2.0]),
    (ADIABATIC, "--threshold", "threshold", "finite and > 0", [0.0]),
    (ADIABATIC, "--dt", "dt", "finite and > 0", [-1e-3]),
    (ADIABATIC, "--t", "t", "finite", [-math.inf]),
    (GEOMETRY, "--margin", "margin", "finite and >= 1", [0.5]),
    (GEOMETRY, "--gamma", "gamma", "finite and != 0", [0.0]),
    (GEOMETRY, "--mass", "mass", "finite and > 0", [-1.0]),
]


PHASE_OMEGA_T = "omega and t must keep the phase omega t finite, got omega = {}, t = {}"
PHASE_WBAR_T = "t must keep the phase wbar t/2 finite, got t = 1e+300"

# Derived values that leave the float range, raised by spin.check_finite naming the inputs: (call, exact message)
SCALE_LIBRARY = [
    *(
        pytest.param(
            lambda call=call: call(TrapConfig(1, 1, 1e300, 1, 1, 1), x=0.0, y=0.0, z=0.0, t=1e300),
            PHASE_OMEGA_T.format("1e+300", "1e+300"),
            id=f"{call.__name__}-omega-t",
        )
        for call in (field_at, larmor_at, field_angle_at)
    ),
    pytest.param(lambda: zero_locus(CONFIG, 1e308), PHASE_OMEGA_T.format("44000.0", "1e+308"), id="zero_locus-omega-t"),
    pytest.param(
        lambda: hamiltonian_at(DriveParams(1, 10, 1), np.array([0.0, 1e308])),
        PHASE_OMEGA_T.format("10.0", "1e+308"),
        id="hamiltonian_at-omega-t",
    ),
    pytest.param(
        lambda: evolve_rotating_frame(DriveParams(1, 10, 1), [0.0, 1e308]),
        PHASE_OMEGA_T.format("10.0", "1e+308"),
        id="evolve_rotating_frame-omega-t",
    ),
    pytest.param(  # wbar t/2 is near half of omega t here, so only omega t overflows
        lambda: rotating_frame_propagator(DriveParams(1, 1e300, 1), np.array([0.0, 2.5e8])),
        PHASE_OMEGA_T.format("1e+300", "250000000.0"),
        id="rotating_frame_propagator-omega-t",
    ),
    pytest.param(
        lambda: rotating_frame_propagator(DriveParams(1e300, 0.0, 1), np.array([0.0, 1e10])),
        "omega0 and omega and t must keep the phase wbar t/2 finite, got omega0 = 1e+300, omega = 0.0, t = 10000000000.0",
        id="rotating_frame_propagator-wbar-t",
    ),
    pytest.param(lambda: probabilities(1e10, 1.5, 1.0, np.array([0.0, 1e300])), PHASE_WBAR_T, id="broadcast-phase"),
    pytest.param(lambda: survival_probability(DriveParams(1e10, 1.5, 1.0), 1e300), PHASE_WBAR_T, id="scalar-phase"),
    pytest.param(
        lambda: tau_of_ratio(np.array([1.0, 2e154]), 0.5), "x must keep (1 - x)^2 finite, got x = 2e+154", id="tau-(1-x)^2"
    ),
    pytest.param(
        lambda: resurrection_time(DriveParams(1.0, 5e-324, 1.0)),
        "omega0 and omega must keep x finite, got omega0 = 1.0, omega = 5e-324",
        id="resurrection_time-x",
    ),
    pytest.param(
        lambda: Axis.linear("x", -1e308, 1e308, 3),
        "axis 'x' start and axis 'x' stop must keep the grid finite, "
        "got axis 'x' start = -1e+308, axis 'x' stop = 1e+308",
        id="Axis.linear-grid",
    ),
    pytest.param(
        lambda: FieldVector(1.5e308, 1.5e308, 0.0).magnitude(),  # |B| is about 2.1e308
        "bx and by and bz must keep |B| finite, got bx = 1.5e+308, by = 1.5e+308, bz = 0.0",
        id="|B|",
    ),
    pytest.param(
        lambda: field_at(TrapConfig(a0=1e308, b0=1, omega=1, gamma=1, mu=1, mass=1), 10.0, 0.0, 0.0, 0.0),
        "a0 and b0 and x and y and z must keep the field finite, got a0 = 1e+308, b0 = 1.0, x = 10.0, y = 0.0, z = 0.0",
        id="field",
    ),
    pytest.param(
        lambda: larmor_at(TrapConfig(a0=1, b0=0.25, omega=1, gamma=5e-324, mu=1, mass=1), 0.0, 0.0, 0.0),
        "gamma and |B| must keep the Larmor period finite, got gamma = 5e-324, |B| = 0.25",
        id="larmor-underflows",
    ),
    pytest.param(
        lambda: spring_constant(TrapConfig(1e200, 1, 1, 1, 1, 1)),
        "mu and a0 and b0 must keep k finite, got mu = 1.0, a0 = 1e+200, b0 = 1.0",
        id="k",
    ),
    pytest.param(
        lambda: adiabaticity_matrix_element(DriveParams(1e-300, 1e300, 1.0)),
        "omega0 and omega and dt must keep the matrix element finite, "
        "got omega0 = 1e-300, omega = 1e+300, dt = 6.283185307179586e-306",
        id="squared-gap",
    ),
    pytest.param(
        lambda: adiabaticity_matrix_element(DriveParams(1.0, 10.0, 1.0), 1e308, 1e308),
        "t and dt must keep t +/- dt finite, got t = 1e+308, dt = 1e+308",
        id="t+dt",
    ),
    pytest.param(
        lambda: adiabaticity_matrix_element(DriveParams(1.0, 10.0, 1.0), -1e308, 1e308),
        "t and dt must keep t +/- dt finite, got t = -1e+308, dt = 1e+308",
        id="t-dt",
    ),
    pytest.param(
        lambda: adiabaticity_matrix_element(DriveParams(1.0, 10.0, 1.0), 0.0, 1e308),
        "omega and t and dt must keep the phase omega (t +/- dt) finite, got omega = 10.0, t = 0.0, dt = 1e+308",
        id="omega(t+dt)",
    ),
]
SCALE_CLI = [
    pytest.param(
        "--a0 1e-100 --b0 1 --omega 1 --gamma 1 --mu 1e-300 --mass 1",
        "omega and mu and a0 and b0 and mass must keep omega/omega_osc finite, "
        "got omega = 1.0, mu = 1e-300, a0 = 1e-100, b0 = 1.0, mass = 1.0",
        id="omega_osc-underflows",
    ),
    pytest.param(
        "--a0 1e-150 --b0 1e160 --omega 1 --gamma 1 --mu 1e300 --mass 1 --format json",
        "b0 and a0 must keep r0 finite, got b0 = 1e+160, a0 = 1e-150",
        id="r0-overflows",
    ),
    pytest.param(
        "--a0 1 --b0 1e200 --omega 1 --gamma 1e200 --mu 1e200 --mass 1 --format json",
        "gamma and b0 must keep omega0_ref finite, got gamma = 1e+200, b0 = 1e+200",
        id="omega0_ref-overflows",
    ),
    pytest.param(
        "--a0 1 --b0 1 --omega 1e-300 --gamma 1e10 --mu 1e-300 --mass 1",
        "gamma and b0 and omega must keep omega0_ref/omega finite, got gamma = 10000000000.0, b0 = 1.0, omega = 1e-300",
        id="ratio_high-overflows",
    ),
]


def _cases(table):
    """One case per bad value: nan and inf for a float rule, then the rule's own values."""
    for entry, call, name, rule, values in table:
        non_finite = [] if isinstance(values[0], int) else [math.nan, math.inf]
        for value in non_finite + values:
            yield pytest.param(call, value, f"{name} must be {rule}, got {value!r}", id=f"{entry}-{name}={value!r}")


def _innermost_code(tb):
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code


@pytest.mark.parametrize("call, value, message", _cases(LIBRARY))
def test_library_rule_raised_by_check(call, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
        call(value)
    assert _innermost_code(err.tb) is spin.check.__code__


@pytest.mark.parametrize(
    "call, value, message",
    _cases(
        (f"{argv[0]} {flag}", lambda v, argv=argv, flag=flag: main(argv + [f"{flag}={v!r}"]), *rest)
        for argv, flag, *rest in CLI
    ),
)
def test_cli_rule_is_usage_error(call, value, message, capsys):
    assert call(value) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"toptrap: {message}\n")


@pytest.mark.filterwarnings("error")  # a numpy overflow warning in place of the report fails the case
@pytest.mark.parametrize("call, message", SCALE_LIBRARY)
def test_library_scale_raised_by_check_finite(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
        call()
    assert _innermost_code(err.tb) is spin.check_finite.__code__


@pytest.mark.parametrize("flags, message", SCALE_CLI)
def test_cli_scale_is_usage_error(flags, message, capsys):
    assert main(["geometry", *flags.split()]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"toptrap: {message}\n")


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: hierarchy_check(CONFIG, 1.0), id="margin=1"),
        pytest.param(lambda: IntegratorSettings(rel_tol=1e-10, abs_tol=1e-10), id="abs_tol=rel_tol"),
        pytest.param(lambda: tau_extremum(math.nextafter(math.pi, 0.0)), id="tau_extremum-theta-below-pi"),
        pytest.param(lambda: Axis.linear("t", 0.0, 1.0, 2), id="Axis.linear-steps=2"),
        pytest.param(lambda: Axis.log("omega", 5e-324, 1.0, 2), id="Axis.log-start=5e-324"),
        pytest.param(lambda: check("samples", *GRID_SIZE, MAX_GRID_POINTS), id="samples=MAX_GRID_POINTS"),
    ],
)
def test_library_boundary_accepted(call):
    call()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["tau", "--theta", repr(math.pi), "--steps", "5"], id="tau-theta=pi"),
        pytest.param(EVOLVE[:-1] + ["2"], id="samples=2"),
        pytest.param(EVOLVE + ["--rel-tol", "1e-10", "--abs-tol", "1e-10", "--method", "ode"], id="abs_tol=rel_tol"),
        pytest.param(GEOMETRY + ["--margin", "1"], id="margin=1"),
    ],
)
def test_cli_boundary_accepted(argv, capsys):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out


def test_int_is_tested_as_an_int_and_returned_as_a_float_array():
    with pytest.raises(ValueError, match=f"^samples must be {re.escape(GRID_RULE)}, got {10**400}$"):
        check("samples", *GRID_SIZE, 10**400)
    assert check("samples", *GRID_SIZE, 2).dtype == np.float64
    assert np.array_equal(hamiltonian_at(P, 1), hamiltonian_at(P, 1.0))


def test_cli_samples_at_the_grid_limit_reach_the_grid(monkeypatch):
    """--samples MAX_GRID_POINTS passes the rule: the run gets as far as building its time grid."""

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(np, "linspace", reached)
    with pytest.raises(Reached):
        main(EVOLVE[:-1] + [str(MAX_GRID_POINTS)])
