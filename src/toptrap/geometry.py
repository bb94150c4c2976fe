"""Field geometry and physical scales of the time-orbiting-potential trap.

The trap superposes a quadrupole field of gradient ``a0`` with a uniform
field of magnitude ``b0`` rotating in the x-y plane at angular frequency
``omega``:

    B(x, y, z, t) = (a0 x + b0 cos(omega t),  a0 y + b0 sin(omega t),  -2 a0 z)

The instantaneous zero of the field circles at radius r0 = b0/a0 (the
circle of death).  All quantities are SI; the Larmor convention is
omega0 = |gamma| * |B| in rad/s.

Because the field minimum stays in the z = 0 plane, the polar angle fed to
the spin model is exactly pi/2 for in-plane points; small-angle regimes
require displacing the evaluation point out of that plane, which is why
``larmor_at``/``field_angle_at`` expose ``z`` as an argument and the spin
model treats the angle as free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin import FINITE, FLOAT_MAX, FLOAT_MIN, POSITIVE, DriveParams, check, check_finite

#: Fields smaller than this fraction of b0 count as "on the circle of death".
ZERO_FIELD_RTOL = 1e-12


@dataclass(frozen=True)
class TrapConfig:
    """Physical trap parameters, SI units.

    Attributes:
        a0: quadrupole gradient, T/m.
        b0: rotating-field magnitude, T.
        omega: rotating-field angular frequency, rad/s.
        gamma: gyromagnetic ratio, rad/(s*T); may be negative but not zero.
        mu: magnetic moment magnitude, J/T.
        mass: atomic mass, kg.
    """

    a0: float
    b0: float
    omega: float
    gamma: float
    mu: float
    mass: float

    def __post_init__(self):
        for name in ("a0", "b0", "omega", "gamma", "mu", "mass"):
            rule = ("finite and != 0", lambda v: (abs(v) <= FLOAT_MAX) & (v != 0.0)) if name == "gamma" else POSITIVE
            check(name, *rule, getattr(self, name))


@dataclass(frozen=True)
class FieldVector:
    """Magnetic field components in Tesla."""

    bx: float
    by: float
    bz: float

    def magnitude(self) -> float:
        """sqrt(bx^2 + by^2 + bz^2) without squaring, so it answers wherever |B| is a float; a ValueError naming bx, by
        and bz where |B| itself overflows."""
        b = math.hypot(self.bx, self.by, self.bz)
        if not b < math.inf:  # inf or nan
            check_finite("|B|", b, bx=self.bx, by=self.by, bz=self.bz)
        return b


@dataclass(frozen=True)
class HierarchyReport:
    """Separation of the three trap frequency scales omega_osc, omega, omega0."""

    omega_osc: float
    omega: float
    omega0_ref: float
    ratio_low: float
    ratio_high: float
    margin: float
    satisfied: bool


@dataclass(frozen=True)
class ConfinementReport:
    """Escape time versus resurrection time 2 pi / omega_bar.

    ``resurrection_time`` is infinite when the spin never flips (zero
    coupling) or 2 pi / omega_bar overflows, in which case ``ratio`` is 0 and the verdict is confined.
    """

    confined: bool
    escape_time: float
    resurrection_time: float
    ratio: float

    def __init__(self, confined: bool, escape_time: float, resurrection_time: float, ratio: float):
        # dataclass's own __init__ without its object.__setattr__ per frozen field, as in DriveParams.
        state = self.__dict__
        state["confined"], state["escape_time"], state["resurrection_time"], state["ratio"] = (
            confined, escape_time, resurrection_time, ratio)


def _field(c: TrapConfig, x: float, y: float, z: float, t: float) -> tuple[float, float, float, float]:
    """Field components (bx, by, bz) of :func:`field_at` and |B| with the bits of ``FieldVector.magnitude``.  |B| is
    unchecked: inf or nan where it overflows (that method reports it), short of bits where subnormal (the callers scale
    the components).  The fast test is ``FINITE``'s, abs(v) <= FLOAT_MAX: an int beyond the floats is not converted."""
    if not (abs(x) <= FLOAT_MAX and abs(y) <= FLOAT_MAX and abs(z) <= FLOAT_MAX and abs(t) <= FLOAT_MAX
            and math.isfinite(phase := c.omega * t)):
        for name, value in (("x", x), ("y", y), ("z", z), ("t", t)):
            check(name, *FINITE, value)
        check_finite("the phase omega t", phase, omega=c.omega, t=t)
    bx, by, bz = c.a0 * x + c.b0 * math.cos(phase), c.a0 * y + c.b0 * math.sin(phase), -2.0 * (c.a0 * z)  # no inf * 0
    return bx, by, bz, math.hypot(bx, by, bz)


def field_at(c: TrapConfig, x: float, y: float, z: float, t: float) -> FieldVector:
    """Trap field at position (x, y, z) metres and time t seconds; a ValueError naming a0, b0 and the position where
    a component overflows."""
    field = _field(c, x, y, z, t)[:3]
    if not math.isfinite(sum(field)):  # a component overflows (or only their sum: then check_finite finds none)
        check_finite("the field", field, a0=c.a0, b0=c.b0, x=x, y=y, z=z)
    return FieldVector(*field)


def zero_locus(c: TrapConfig, t: float) -> np.ndarray:
    """Position of the instantaneous field zero: radius b0/a0, opposite the bias."""
    r0 = circle_of_death_radius(c)
    _field(c, 0.0, 0.0, 0.0, t)  # names a bad t or omega t as field_at does
    return np.array([-r0 * math.cos(c.omega * t), -r0 * math.sin(c.omega * t), 0.0])


def circle_of_death_radius(c: TrapConfig) -> float:
    """Radius b0/a0 of the circle traced by the field zero, metres; a ValueError naming b0 and a0 where it overflows."""
    r0 = c.b0 / c.a0
    check_finite("r0", r0, b0=c.b0, a0=c.a0)
    return r0


def spring_constant(c: TrapConfig) -> float:
    """Restoring-force constant mu * a0^2 / (2 b0), N/m; a ValueError naming mu, a0 and b0 where it overflows."""
    k = c.mu * (c.a0 * c.a0) / (2.0 * c.b0)
    check_finite("k", k, mu=c.mu, a0=c.a0, b0=c.b0)
    return k


def oscillation_frequency(c: TrapConfig) -> float:
    """Cloud oscillation frequency sqrt(k/m) about the field minimum, rad/s; a ValueError where it overflows."""
    osc = math.sqrt(spring_constant(c) / c.mass)
    check_finite("omega_osc", osc, mu=c.mu, a0=c.a0, b0=c.b0, mass=c.mass)
    return osc


def larmor_at(c: TrapConfig, x: float, y: float, t: float, z: float = 0.0) -> float:
    """Local Larmor frequency |gamma| * |B| at (x, y, z), rad/s, also where |B| alone is beyond the floats.

    Raises:
        ValueError: on (or numerically at) the circle of death, where the field magnitude vanishes and the Larmor
            frequency is undefined, naming the field components where one is infinite, and gamma and |B| (the
            components where |B| overflows) where omega0 overflows or underflows to 0.
    """
    bx, by, bz, b = _field(c, x, y, z, t)
    if not ZERO_FIELD_RTOL * c.b0 < b:
        raise ValueError("Larmor frequency undefined at field zero")
    omega0 = abs(c.gamma) * b if FLOAT_MIN <= b < math.inf else math.hypot(*(abs(c.gamma) * v for v in (bx, by, bz)))
    if not 0.0 < omega0 < math.inf:  # overflows, or underflows to 0 with an infinite Larmor period
        check_finite("|B|", (bx, by, bz), bx=bx, by=by, bz=bz)  # an infinite component
        field = {"|B|": b} if b < math.inf else {"bx": bx, "by": by, "bz": bz}
        check_finite("the Larmor frequency" if omega0 else "the Larmor period", math.inf, gamma=c.gamma, **field)
    return omega0


def field_angle_at(c: TrapConfig, x: float, y: float, t: float, z: float = 0.0) -> float:
    """Polar angle arccos(Bz/|B|) of the field at (x, y, z); pi/2 anywhere in z = 0.

    Raises:
        ValueError: at the field zero, where the direction is undefined, and naming the components where one is inf.
    """
    bx, by, bz, b = _field(c, x, y, z, t)
    if not ZERO_FIELD_RTOL * c.b0 < b:
        raise ValueError("field angle undefined at field zero")
    if not FLOAT_MIN <= b < math.inf:  # scaled by 2^600 or 2^-600, exactly, the components give |B| in full
        check_finite("|B|", (bx, by, bz), bx=bx, by=by, bz=bz)  # an infinite component
        k = 2.0**600 if b < FLOAT_MIN else 2.0**-600
        bz, b = bz * k, math.hypot(bx * k, by * k, bz * k)
    return math.acos(bz / b)


def hierarchy_check(c: TrapConfig, margin: float = 10.0) -> HierarchyReport:
    """Check omega_osc << omega << omega0 with ``margin`` standing in for "<<".

    ``omega0_ref`` is the Larmor frequency at the bias field b0.  The
    hierarchy is the conventional sufficient trapping condition; the spin
    dynamics elsewhere in this package quantifies when it can be relaxed.
    """
    check("margin", "finite and >= 1", lambda v: (v >= 1.0) & (v <= FLOAT_MAX), margin)
    osc = oscillation_frequency(c)
    omega0_ref = abs(c.gamma) * c.b0
    check_finite("omega0_ref", omega0_ref, gamma=c.gamma, b0=c.b0)
    ratio_low = c.omega / osc if osc else math.inf  # omega_osc underflows to 0 where mu a0^2 / (2 b0 mass) does
    check_finite("omega/omega_osc", ratio_low, omega=c.omega, mu=c.mu, a0=c.a0, b0=c.b0, mass=c.mass)
    ratio_high = omega0_ref / c.omega
    check_finite("omega0_ref/omega", ratio_high, gamma=c.gamma, b0=c.b0, omega=c.omega)
    return HierarchyReport(
        omega_osc=osc,
        omega=c.omega,
        omega0_ref=omega0_ref,
        ratio_low=ratio_low,
        ratio_high=ratio_high,
        margin=margin,
        satisfied=bool(ratio_low >= margin and ratio_high >= margin),
    )


def confinement_advisor(p: DriveParams, escape_time: float) -> ConfinementReport:
    """Judge confinement: flipped atoms that cannot escape within one
    resurrection time 2 pi / omega_bar are recaptured.

    With zero coupling (theta in {0, pi} or omega = 0) the spin never flips, nor in any time a float holds where
    2 pi / omega_bar overflows, and the verdict is confined for any escape time.

    Args:
        p: drive parameters.
        escape_time: user-supplied time for a strong-field seeker to leave
            the trap region, seconds; no kinematic model is assumed.

    Raises:
        ValueError: if escape_time is not finite and > 0, and naming it and the drive where the ratio overflows.
    """
    if not 0.0 < escape_time <= FLOAT_MAX:
        check("escape_time", *POSITIVE, escape_time)
    t_res = 2.0 * math.pi / p.omega_bar if p.coupling and p.omega_bar else math.inf
    ratio = escape_time / t_res
    if ratio == math.inf:
        drive = {"omega0": p.omega0, "omega": p.omega, "theta": p.theta}
        check_finite("escape_time/resurrection_time", ratio, escape_time=escape_time, **drive)
    return ConfinementReport(t_res == math.inf or escape_time > t_res, escape_time, t_res, ratio)
