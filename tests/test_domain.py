"""The drive domain contract: every entry point rejects an out-of-domain input with one message.

omega0 > 0, omega >= 0, theta in [0, pi], t >= 0 and x = omega0/omega >= 0, all finite; a value
outside reads ``<name> must be <rule>, got <value>`` from whichever entry point reads it.
"""

import math
import re

import numpy as np
import pytest

from toptrap.closed_form import amplitudes_at, probabilities, survival_probability, tau_of_ratio, transition_probability
from toptrap.integrate import evolve_instantaneous_basis, evolve_lab_frame, evolve_rotating_frame
from toptrap.spin import DOMAIN, DriveParams
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
DRIVE = {"omega0": GOOD["omega0"], "omega": GOOD["omega"], "theta": GOOD["theta"]}
P = DriveParams(**DRIVE)


def _drive(v):
    return v["omega0"], v["omega"], v["theta"]


# entry point -> (the inputs it reads, a call with those inputs taken from a dict)
DIRECT = {
    "DriveParams": (("omega0", "omega", "theta"), lambda v: DriveParams(*_drive(v))),
    "probabilities": (("omega0", "omega", "theta", "t"), lambda v: probabilities(*_drive(v), v["t"])),
    "survival-scalar": (("t",), lambda v: survival_probability(P, v["t"])),
    "transition-scalar": (("t",), lambda v: transition_probability(P, v["t"])),
    "amplitudes-scalar": (("t",), lambda v: amplitudes_at(P, v["t"])),
    "survival-array": (("t",), lambda v: survival_probability(P, np.array([1.0, v["t"]]))),
    "transition-array": (("t",), lambda v: transition_probability(P, np.array([1.0, v["t"]]))),
    "amplitudes-array": (("t",), lambda v: amplitudes_at(P, np.array([1.0, v["t"]]))),
    "tau_of_ratio": (("x", "theta"), lambda v: tau_of_ratio(v["x"], v["theta"])),
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
        pytest.param(entry, name, value, id=f"{entry}-{name}={value}")
        for entry, (reads, _) in DIRECT.items()
        for name, value in FINITE_BAD + NON_FINITE_BAD
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
        pytest.param(q, name, value, id=f"{q}-{name}={value}")
        for q in QUANTITIES
        for name, value in FINITE_BAD
        if name in SWEEP_INPUTS[q] or name == "x"
    ],
)
def test_sweep_names_the_rule(quantity, name, value, as_axis):
    """Axes and fixed values are checked before any quantity, whichever quantities are asked for."""
    names = [("x" if n == "omega0" and name == "x" else n) for n in SWEEP_INPUTS[quantity]]
    fixed = {n: (value if n == name else GOOD[n]) for n in names}
    axes = (Axis(name, np.array([GOOD[name], fixed.pop(name)])),) if as_axis else ()
    with pytest.raises(ValueError, match=_message(name, value)):
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
