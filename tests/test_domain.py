"""The drive domain contract: every entry point rejects an out-of-domain input with one message.

omega0 > 0, omega >= 0, theta in [0, pi], t >= 0 and x = omega0/omega >= 0, all finite; a value
outside reads ``<name> must be <rule>, got <value>`` from whichever entry point reads it.  A Python int beyond the
float range (10**400) is outside too: it is named as an int, not left to overflow a float conversion.
"""

import math
import re

import numpy as np
import pytest

from toptrap.closed_form import probabilities, survival_probability, tau_of_ratio, transition_probability
from toptrap.geometry import (
    TrapConfig,
    confinement_advisor,
    field_angle_at,
    field_at,
    hierarchy_check,
    larmor_at,
    zero_locus,
)
from toptrap.integrate import evolve_instantaneous_basis, evolve_lab_frame, evolve_rotating_frame
from toptrap.spin import DOMAIN, FINITE, DriveParams, check, check_domain
from toptrap.sweep import QUANTITIES, Axis, SweepSpec, run_sweep

RULES = {
    "omega0": "finite and > 0",
    "omega": "finite and >= 0",
    "theta": "in [0, pi]",
    "t": "finite and >= 0",
    "x": "finite and >= 0",
}
GOOD = {"omega0": 1.0, "omega": 1.5, "theta": 1.0, "t": 2.0, "x": 0.5}
FINITE_BAD = [("omega0", 0.0), ("omega0", -1.0), ("omega", -1.0), ("theta", -0.1), ("theta", 3.2), ("t", -1.0), ("x", -0.5)]
NON_FINITE_BAD = [(name, value) for name in RULES for value in (math.nan, math.inf)]
HUGE = 10**400  # a Python int that no float holds
HUGE_BAD = [(name, HUGE) for name in RULES]
DRIVE = {"omega0": GOOD["omega0"], "omega": GOOD["omega"], "theta": GOOD["theta"]}
P = DriveParams(**DRIVE)
UNIT_TRAP = dict(a0=1.0, b0=1.0, omega=1.0, gamma=1.0, mu=1.0, mass=1.0)


def _drive(v):
    return v["omega0"], v["omega"], v["theta"]


# entry point -> (the inputs it reads, a call with those inputs taken from a dict)
DIRECT = {
    "DriveParams": (("omega0", "omega", "theta"), lambda v: DriveParams(*_drive(v))),
    "probabilities": (("omega0", "omega", "theta", "t"), lambda v: probabilities(*_drive(v), v["t"])),
    "survival-scalar": (("t",), lambda v: survival_probability(P, v["t"])),
    "transition-scalar": (("t",), lambda v: transition_probability(P, v["t"])),
    "survival-array": (("t",), lambda v: survival_probability(P, np.array([1.0, v["t"]]))),
    "transition-array": (("t",), lambda v: transition_probability(P, np.array([1.0, v["t"]]))),
    "tau_of_ratio": (("x", "theta"), lambda v: tau_of_ratio(v["x"], v["theta"])),
    "check_domain": (("t", "x"), lambda v: [check_domain(name, v[name]) for name in ("t", "x")]),
    "evolve_instantaneous_basis": (("t",), lambda v: evolve_instantaneous_basis(P, np.array([v["t"], 3.0]))),
    "evolve_lab_frame": (("t",), lambda v: evolve_lab_frame(P, np.array([v["t"], 3.0]))),
    "evolve_rotating_frame": (("t",), lambda v: evolve_rotating_frame(P, np.array([v["t"], 3.0]))),
}

# the inputs a sweep of each quantity needs, with omega0 or x = omega0/omega
SWEEP_INPUTS = {
    q: ("omega0", "omega", "theta", "t") if q in ("survival", "transition") else ("omega0", "omega", "theta") for q in QUANTITIES
}


def _message(name, value):
    return f"^{re.escape(f'{name} must be {RULES[name]}, got {value!r}')}$"


@pytest.mark.parametrize(
    "entry, name, value",
    [
        pytest.param(entry, name, value, id=f"{entry}-{name}={'10**400' if value == HUGE else value}")
        for entry, (reads, _) in DIRECT.items()
        # HUGE as given, and inside an array, which numpy then holds as an object array
        for name, value in FINITE_BAD + NON_FINITE_BAD + HUGE_BAD
        if name in reads
    ],
)
def test_direct_entry_point_names_the_rule(entry, name, value):
    call = DIRECT[entry][1]
    with pytest.raises(ValueError, match=_message(name, value)):
        call({**GOOD, name: value})


@pytest.mark.parametrize("as_axis", [False, True], ids=["fixed", "axis"])
@pytest.mark.parametrize(
    "quantity, name, value",
    [
        pytest.param(q, name, value, id=f"{q}-{name}={'10**400' if value == HUGE else value}")
        for q in QUANTITIES
        for name, value in FINITE_BAD + HUGE_BAD
        if name in SWEEP_INPUTS[q] or name == "x"
    ],
)
def test_sweep_names_the_rule(quantity, name, value, as_axis):
    """Axes and fixed values are checked before any quantity, whichever quantities are asked for.  HUGE fails the
    first rule that reads it, an axis's or a fixed value's ``finite``, as given: numpy holds it in an object array."""
    names = [("x" if n == "omega0" and name == "x" else n) for n in SWEEP_INPUTS[quantity]]
    fixed = {n: (value if n == name else GOOD[n]) for n in names}
    message = f"^{re.escape(f'{name} must be finite, got {HUGE}')}$" if value == HUGE else _message(name, value)
    with pytest.raises(ValueError, match=message):
        axes = (Axis(name, np.array([GOOD[name], fixed.pop(name)])),) if as_axis else ()
        run_sweep(SweepSpec(axes=axes, quantities=(quantity,), fixed=fixed))


EDGES = [0.0, -0.0, math.pi, math.nextafter(math.pi, 4.0), 5e-324, 1.7e308]
EDGE_DRIVES = [{**DRIVE, name: value} for name in DRIVE for value in EDGES] + [{**DRIVE, "omega0": 1.7e308, "omega": 1.7e308}]


@pytest.mark.parametrize("drive", EDGE_DRIVES, ids=lambda d: ",".join(map(repr, d.values())))
def test_drive_fast_path_accepts_what_the_table_accepts(drive):
    """DriveParams tests the three rules as one chained comparison; on edge floats, and on a finite
    pair whose sum overflows, it accepts what DOMAIN accepts and names what DOMAIN rejects."""
    rejected = [(name, value) for name, value in drive.items() if not DOMAIN[name][1](np.float64(value))]
    if rejected:
        with pytest.raises(ValueError, match=_message(*rejected[0])):
            DriveParams(**drive)
    else:
        assert DriveParams(**drive).omega0 == drive["omega0"]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: confinement_advisor(P, HUGE), f"escape_time must be finite and > 0, got {HUGE}"),
        (lambda: check("x", *FINITE, HUGE), f"x must be finite, got {HUGE}"),
        (lambda: check("x", *FINITE, -HUGE), f"x must be finite, got {-HUGE}"),
        (lambda: TrapConfig(**{**UNIT_TRAP, "gamma": HUGE}), f"gamma must be finite and != 0, got {HUGE}"),
        (lambda: hierarchy_check(TrapConfig(**UNIT_TRAP), margin=HUGE), f"margin must be finite and >= 1, got {HUGE}"),
        (lambda: Axis.linear("t", 0.0, HUGE, 3), f"axis 't' stop must be finite and > start = 0.0, got {HUGE}"),
    ],
    ids=["escape_time", "finite", "finite-negative", "gamma", "margin", "grid-stop"],
)
def test_int_beyond_the_float_range_is_named(call, message):
    """The rules compare with the largest float, not with inf, which every Python int is below."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# position function -> (the names it reads, a call with x, y, z and t taken from a dict)
POSITION = {
    "larmor_at": (("x", "y", "z", "t"), lambda c, v: larmor_at(c, v["x"], v["y"], v["t"], v["z"])),
    "field_angle_at": (("x", "y", "z", "t"), lambda c, v: field_angle_at(c, v["x"], v["y"], v["t"], v["z"])),
    "field_at": (("x", "y", "z", "t"), lambda c, v: field_at(c, v["x"], v["y"], v["z"], v["t"])),
    "zero_locus": (("t",), lambda c, v: zero_locus(c, v["t"])),
}
POSITION_HUGE_BAD = [(name, value) for name in ("x", "y", "z", "t") for value in (HUGE, -HUGE)]


@pytest.mark.parametrize(
    "entry, name, value",
    [
        pytest.param(entry, name, value, id=f"{entry}-{name}={'-' if value < 0 else ''}10**400")
        for entry, (reads, _) in POSITION.items()
        for name, value in POSITION_HUGE_BAD
        if name in reads
    ],
)
def test_position_beyond_the_float_range_is_named(entry, name, value):
    """The trap field compares a position or time with the largest float: an int beyond it is named, not converted
    (that raised OverflowError)."""
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be finite, got {value}')}$"):
        POSITION[entry][1](TrapConfig(**UNIT_TRAP), {"x": 0.5, "y": 0.0, "z": 0.0, "t": 0.0, name: value})


@pytest.mark.parametrize(
    "value",
    [1j, [1.0, 2j], np.array([0.5j]), "2.5", ["1"]],
    ids=["complex", "complex-list", "complex-array", "str", "str-list"],
)
def test_check_refuses_values_a_float_cast_would_change(value):
    """A complex number would lose its imaginary part and a string be parsed: numpy's same-kind cast refuses both."""
    with pytest.raises(TypeError):
        check("x", *FINITE, value)


@pytest.mark.parametrize("value", [2.0, np.float64(2.0), np.array(2.0), 2], ids=["float", "float64", "0-d", "int"])
def test_check_gives_every_good_scalar_one_0d_float_array(value):
    """A good Python float returns before the cast, with what a numpy float, a 0-d array or an int returns."""
    got = check("x", *FINITE, value)
    assert type(got) is np.ndarray and got.shape == () and got.dtype == np.float64 and got == 2.0
