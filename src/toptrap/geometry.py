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

from .spin import DriveParams

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
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("a0", "b0", "omega", "mu", "mass"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.gamma == 0.0:
            raise ValueError("gamma must be non-zero")


@dataclass(frozen=True)
class FieldVector:
    """Magnetic field components in Tesla."""

    bx: float
    by: float
    bz: float

    def magnitude(self) -> float:
        return math.sqrt(self.bx**2 + self.by**2 + self.bz**2)


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
    coupling), in which case ``ratio`` is 0 and the verdict is confined.
    """

    confined: bool
    escape_time: float
    resurrection_time: float
    ratio: float


def _components(c: TrapConfig, x: float, y: float, z: float, t: float) -> tuple[float, float, float]:
    """Field components (bx, by, bz) of :func:`field_at` as a tuple, without building a FieldVector."""
    for name, value in (("x", x), ("y", y), ("z", z), ("t", t)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    return c.a0 * x + c.b0 * math.cos(c.omega * t), c.a0 * y + c.b0 * math.sin(c.omega * t), -2.0 * c.a0 * z


def field_at(c: TrapConfig, x: float, y: float, z: float, t: float) -> FieldVector:
    """Trap field at position (x, y, z) metres and time t seconds."""
    return FieldVector(*_components(c, x, y, z, t))


def zero_locus(c: TrapConfig, t: float) -> np.ndarray:
    """Position of the instantaneous field zero: radius b0/a0, opposite the bias."""
    r0 = circle_of_death_radius(c)
    return np.array([-r0 * math.cos(c.omega * t), -r0 * math.sin(c.omega * t), 0.0])


def circle_of_death_radius(c: TrapConfig) -> float:
    """Radius b0/a0 of the circle traced by the field zero, metres."""
    return c.b0 / c.a0


def spring_constant(c: TrapConfig) -> float:
    """Restoring-force constant mu * a0^2 / (2 b0), N/m."""
    return c.mu * c.a0**2 / (2.0 * c.b0)


def oscillation_frequency(c: TrapConfig) -> float:
    """Cloud oscillation frequency sqrt(k/m) about the field minimum, rad/s."""
    return math.sqrt(spring_constant(c) / c.mass)


def larmor_at(c: TrapConfig, x: float, y: float, t: float, z: float = 0.0) -> float:
    """Local Larmor frequency |gamma| * |B| at (x, y, z), rad/s.

    Raises:
        ValueError: on (or numerically at) the circle of death, where the
            field magnitude vanishes and the Larmor frequency is undefined.
    """
    bx, by, bz = _components(c, x, y, z, t)
    b = math.sqrt(bx**2 + by**2 + bz**2)  # FieldVector.magnitude, bit for bit
    if b <= ZERO_FIELD_RTOL * c.b0:
        raise ValueError("Larmor frequency undefined at field zero")
    return abs(c.gamma) * b


def field_angle_at(c: TrapConfig, x: float, y: float, t: float, z: float = 0.0) -> float:
    """Polar angle arccos(Bz/|B|) of the field at (x, y, z); pi/2 anywhere in z = 0.

    Raises:
        ValueError: at the field zero, where the direction is undefined.
    """
    bx, by, bz = _components(c, x, y, z, t)
    b = math.sqrt(bx**2 + by**2 + bz**2)  # FieldVector.magnitude, bit for bit
    if b <= ZERO_FIELD_RTOL * c.b0:
        raise ValueError("field angle undefined at field zero")
    return math.acos(bz / b)


def hierarchy_check(c: TrapConfig, margin: float = 10.0) -> HierarchyReport:
    """Check omega_osc << omega << omega0 with ``margin`` standing in for "<<".

    ``omega0_ref`` is the Larmor frequency at the bias field b0.  The
    hierarchy is the conventional sufficient trapping condition; the spin
    dynamics elsewhere in this package quantifies when it can be relaxed.
    """
    if not (math.isfinite(margin) and margin >= 1.0):
        raise ValueError(f"margin must be >= 1, got {margin!r}")
    osc = oscillation_frequency(c)
    omega0_ref = abs(c.gamma) * c.b0
    ratio_low = c.omega / osc
    ratio_high = omega0_ref / c.omega
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

    With zero coupling (theta in {0, pi} or omega = 0) the spin never flips
    and the verdict is confined for any escape time.

    Args:
        p: drive parameters.
        escape_time: user-supplied time for a strong-field seeker to leave
            the trap region, seconds; no kinematic model is assumed.
    """
    if not (math.isfinite(escape_time) and escape_time > 0.0):
        raise ValueError(f"escape_time must be > 0, got {escape_time!r}")
    if p.coupling == 0.0 or p.omega_bar == 0.0:
        return ConfinementReport(
            confined=True, escape_time=escape_time, resurrection_time=math.inf, ratio=0.0
        )
    t_res = 2.0 * math.pi / p.omega_bar
    return ConfinementReport(
        confined=bool(escape_time > t_res),
        escape_time=escape_time,
        resurrection_time=t_res,
        ratio=escape_time / t_res,
    )
