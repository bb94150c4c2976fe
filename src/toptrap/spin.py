"""Two-level spin model driven by a field rotating at fixed polar angle.

Conventions (hbar = 1, energies in angular-frequency units):

    H(t) = (omega0 / 2) * [[cos(theta),                 e^{-i omega t} sin(theta)],
                           [e^{+i omega t} sin(theta),  -cos(theta)]]

``omega0`` is the Larmor angular frequency set by the local field magnitude,
``omega`` the rotation frequency of the transverse field component and
``theta`` the polar angle between the total field and the z axis.  The
instantaneous spectrum is time independent, +-omega0/2; the weak-field
seeking state ``|->`` carries -omega0/2 and the strong-field seeker ``|+>``
carries +omega0/2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np


FLOAT_MIN, FLOAT_MAX = sys.float_info.min, sys.float_info.max  # the normal floats; no float lies between FLOAT_MAX and inf


def chord(theta, sin=np.sin):
    """2 sin(theta/2), as theta - 2 (theta/2 - sin(theta/2)): that difference is exact (Sterbenz), so these are the bits
    of 2 sin(theta/2) wherever theta/2 is a float, and theta itself for a subnormal theta, whose half may round."""
    half = 0.5 * theta
    return theta - 2.0 * (half - sin(half))


def omega_bar_of(omega0, omega, theta):
    """Effective Rabi frequency sqrt(omega0^2 + omega^2 - 2 omega0 omega cos theta), broadcast.

    Evaluated as hypot(omega0 - omega, sqrt(omega0 omega) * chord(theta)), which is free of cancellation,
    symmetric under omega0 <-> omega, and exactly zero iff omega0 == omega and theta == 0.  The one out-of-range
    rule: outside the normal floats (bits lost, 0 or inf), sqrt(omega0 omega) is sqrt(omega0) sqrt(omega), which is
    finite and never doubled, so theta = 0 gives |omega0 - omega|.  A ValueError names omega0 and omega where wbar
    overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing wbar raises below
        product = np.multiply(omega0, omega)
        normal = (product >= FLOAT_MIN) & (product <= FLOAT_MAX)
        root = np.where(normal, np.sqrt(product), np.sqrt(omega0) * np.sqrt(omega))
        wb = np.hypot(omega0 - omega, root * chord(theta))
    check_finite("omega_bar", wb, omega0=omega0, omega=omega)
    return wb


def adiabaticity_of(omega0, omega, theta, factor=1.0):
    """(omega / (2 omega0)) sin(theta) times ``factor``, broadcast, as 0.5 m ms mf / m0 on the mantissas of omega,
    sin(theta), ``factor`` and omega0 and one exact ldexp by their exponents: no subnormal input loses a bit.  At
    factor 1, where every step is normal, these are the bits of 0.5 omega sin(theta) / omega0.  Overflow: ValueError."""
    (m0, e0), (m, e), (ms, es), (mf, ef) = np.frexp(omega0), np.frexp(omega), np.frexp(np.sin(theta)), np.frexp(factor)
    with np.errstate(over="ignore"):  # an overflowing parameter is named below
        parameter = np.ldexp(0.5 * m * ms * mf / m0, e + es + ef - e0)
    check_finite("the adiabaticity parameter", parameter, omega0=omega0, omega=omega)
    return parameter


# Named (rule, test) pairs for check, then the drive domain: a rule per input; nan fails every test.  Bounded by
# FLOAT_MAX, not inf, so a Python int beyond the float range fails its test rather than overflowing a conversion.
FINITE = ("finite", lambda v: abs(v) <= FLOAT_MAX)
POSITIVE = ("finite and > 0", lambda v: (v > 0.0) & (v <= FLOAT_MAX))
NON_NEGATIVE = ("finite and >= 0", lambda v: (v >= 0.0) & (v <= FLOAT_MAX))
DOMAIN = {
    "omega0": POSITIVE,
    "omega": NON_NEGATIVE,
    "theta": ("in [0, pi]", lambda v: (v >= 0.0) & (v <= math.pi)),
    "t": NON_NEGATIVE,
    "x": NON_NEGATIVE,
}


def check(name, rule, test, value):
    """``value`` as a float array; a ValueError reads ``<name> must be <rule>, got <first bad value>``.  A Python int is
    tested as itself, and so are the values of an object array (numpy's dtype for a sequence holding an int beyond
    int64): it prints as an int, and one too large for a float is named rather than overflowing a conversion.  Values
    numpy does not cast to float within their kind (complex, strings) are its TypeError.  A good Python float returns
    at once."""
    if type(value) is float and test(value):
        return np.asarray(value)
    is_int = isinstance(value, int)
    v = value if is_int else np.asarray(value)
    if not is_int and v.dtype != object:
        v = v.astype(float, casting="same_kind", copy=False)
    if not np.all(ok := test(v)):
        raise ValueError(f"{name} must be {rule}, got {value if is_int else v[~ok].item(0)!r}")
    return np.asarray(v, dtype=float)


def check_domain(name, value):
    """``value`` as a float array; a ValueError names ``name``, its DOMAIN rule and its first value outside it."""
    return check(name, *DOMAIN[name], value)


def check_finite(quantity, values, **inputs):
    """Raise ValueError naming the ``inputs`` at the first point where ``quantity`` ``values`` is not finite
    (e.g. an omega_bar above the largest float); a finite Python float returns at once."""
    if (type(values) is float and math.isfinite(values)) or np.isfinite(values).all():  # the bad mask only on failure
        return
    bad = ~np.isfinite(values)
    got = ", ".join(f"{name} = {float(np.broadcast_to(v, np.shape(values))[bad][0])!r}" for name, v in inputs.items())
    raise ValueError(f"{' and '.join(inputs)} must keep {quantity} finite, got {got}")


@dataclass(frozen=True)
class DriveParams:
    """Reduced parameters of the rotating spin drive.

    Attributes:
        omega0: Larmor angular frequency, rad/s (> 0).
        omega: rotation angular frequency of the drive, rad/s (>= 0).
        theta: polar angle between the field and the z axis, rad, in [0, pi].

    The rates ``coupling`` = omega sin(theta) (zero means the spin never flips), ``omega_bar`` and ``drift`` are
    read as attributes and kept in the instance ``__dict__``, outside the fields: ``__init__`` stores ``coupling``,
    and ``omega_bar`` where omega0 omega is a normal float; the others are computed on first read.
    """

    omega0: float
    omega: float
    theta: float

    def __init__(self, omega0: float, omega: float, theta: float):
        # dataclass's own __init__ without its object.__setattr__ per frozen field: the fields, then the rates, go
        # straight into __dict__.  DOMAIN's three rules as one chained test, the fast path; DOMAIN names a bad value.
        if not (0.0 < omega0 <= FLOAT_MAX and 0.0 <= omega <= FLOAT_MAX and 0.0 <= theta <= math.pi):
            for name, value in (("omega0", omega0), ("omega", omega), ("theta", theta)):
                check_domain(name, value)
        state = self.__dict__
        state["omega0"], state["omega"], state["theta"] = omega0, omega, theta
        state["coupling"] = omega * math.sin(theta)
        # omega_bar_of's bits where omega0 omega is a normal float: there ``math`` does the rest and ``abs(complex(a,
        # b))`` the libm ``hypot`` that ``np.hypot`` calls (not ``math.hypot``, off in the last bit), which cannot
        # overflow (2 sqrt(omega0 omega) <= 2.7e154).  Other drives compute the cached_property on first read.
        product = omega0 * omega
        if FLOAT_MIN <= product <= FLOAT_MAX:
            state["omega_bar"] = abs(complex(omega0 - omega, math.sqrt(product) * chord(theta, math.sin)))

    @cached_property
    def omega_bar(self) -> float:
        """Effective Rabi frequency; zero only for omega0 == omega, theta == 0.

        Computed once per instance with the bits of :func:`omega_bar_of`: by ``__init__`` where omega0 omega is a
        normal float, and here, on first read, for the other drives.  A raising read caches nothing.

        Raises:
            ValueError: naming omega0 and omega where wbar overflows.
        """
        return float(omega_bar_of(self.omega0, self.omega, self.theta))

    @cached_property
    def drift(self) -> float:
        """Diagonal rate omega0 - omega cos(theta) of the amplitude equations, computed once per instance.

        Grouped as (omega0 - omega) + 2 omega sin^2(theta/2), so drift/omega_bar stays accurate when both are small,
        and summed at half scale, so 2 omega sin^2(theta/2) cannot overflow where drift (<= omega_bar) is finite.
        """
        sin_half = math.sin(0.5 * self.theta)
        return 2.0 * ((self.omega0 - self.omega) * 0.5 + self.omega * (sin_half * sin_half))


@dataclass(frozen=True)
class EigenPair:
    """Instantaneous eigensystem of the 2x2 drive Hamiltonian."""

    value_plus: float
    value_minus: float
    vec_plus: np.ndarray
    vec_minus: np.ndarray


def hamiltonian_at(p: DriveParams, t) -> np.ndarray:
    """Return the 2x2 Hamiltonian matrix at time ``t``.

    The result is Hermitian and traceless with det = -omega0^2/4, so its
    eigenvalues are +-omega0/2 for every ``t`` and ``theta``.

    Args:
        p: drive parameters.
        t: time in seconds, any finite value; an array of times gives a
            stack of shape ``t.shape + (2, 2)``.

    Raises:
        ValueError: if any ``t`` is not finite, and naming omega and t where the phase omega t overflows.
    """
    t = check("t", *FINITE, t)
    with np.errstate(over="ignore"):
        phase = p.omega * t
    check_finite("the phase omega t", phase, omega=p.omega, t=t)
    diag = 0.5 * p.omega0 * math.cos(p.theta)
    off = 0.5 * p.omega0 * math.sin(p.theta) * (np.cos(phase) - 1j * np.sin(phase))
    h = np.empty(t.shape + (2, 2), dtype=complex)
    h[..., 0, 0] = diag
    h[..., 0, 1] = off
    h[..., 1, 0] = np.conj(off)
    h[..., 1, 1] = -diag
    return h


def eigenbasis(p: DriveParams, t=0.0):
    """The eigenbasis of H(t) as ``(minus, plus, turn)``: the weak-field seeker (s, -c), value -omega0/2, the
    strong-field seeker (c, s), +omega0/2, for s = sin(theta/2), c = cos(theta/2), and the turn e^{i omega t}, shaped
    like ``t``, that carries them to ``t``: H(t) = F H(0) F^+ for F = diag(1, turn).  No omega0 enters, so none
    underflows.  A ValueError names a non-finite ``t``, and omega and t where the phase omega t overflows.
    """
    t = check("t", *FINITE, t)
    with np.errstate(over="ignore"):  # an infinite phase is named below
        phase = p.omega * t
    check_finite("the phase omega t", phase, omega=p.omega, t=t)
    s, c = math.sin(0.5 * p.theta), math.cos(0.5 * p.theta)
    return (s, -c), (c, s), np.exp(1j * phase)


def eigensystem_at(p: DriveParams, t: float) -> EigenPair:
    """The eigensystem at time ``t`` from :func:`eigenbasis`: -omega0/2 and ``vec_minus`` = (s, -c e^{i omega t}), the
    weak-field seeker, and +omega0/2 and ``vec_plus`` = (c, s e^{i omega t}), the strong-field seeker."""
    (s, minus_c), (c, _), turn = eigenbasis(p, t)
    half = 0.5 * p.omega0
    return EigenPair(half, -half, vec_plus=np.array([c, s * turn]), vec_minus=np.array([s, minus_c * turn]))


def adiabaticity_parameter(p: DriveParams) -> float:
    """Dimensionless adiabaticity measure (omega / (2 omega0)) sin(theta), from :func:`adiabaticity_of`.

    Evolution is adiabatic when this is much less than one; note that the
    angle enters on equal footing with the frequency ratio, so a slow drive
    is sufficient but not necessary.

    Raises:
        ValueError: naming omega0 and omega where the parameter overflows.
    """
    return float(adiabaticity_of(p.omega0, p.omega, p.theta))


def adiabaticity_matrix_element(p: DriveParams, t: float = 0.0, dt: float | None = None) -> float:
    """Evaluate |<-(t)| dH/dt |+(t)>| / (E+ - E-)^2 by central differences, in closed form.

    The squared gap makes the ratio dimensionless; for this drive it is independent of ``t`` and converges
    quadratically in ``dt`` to ``adiabaticity_parameter(p)``.  As H(t + tau) = F(t) H(tau) F(t)^+, it is the parameter
    times |sin(u) / u| sqrt(cos^2 phi + cos^2 theta sin^2 phi), both factors joined by :func:`adiabaticity_of`, for
    u, phi = omega (hi -/+ lo) / 2 on the float ends' offsets lo, hi = (t -/+ dt) - t, exact by Sterbenz near t.

    Args:
        p: drive parameters.
        t: evaluation time.
        dt: finite-difference step; by default 1e-6 of the shortest drive period, against truncation and round-off.

    Raises:
        ValueError: if ``dt`` is not positive and finite or ``t`` not finite; naming omega0, omega where the default dt
            overflows, t, dt where t +/- dt overflows or rounds to t, omega, t, dt where the phase omega (t +/- dt)
            overflows, and omega0, omega, dt where the element overflows or, for a flipping drive, is not normal.
    """
    if dt is None:
        dt = 1e-6 * 2.0 * math.pi / max(p.omega, p.omega0)
        check_finite("the default step dt", dt, omega0=p.omega0, omega=p.omega)
    check("dt", *POSITIVE, dt)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value, named below
        ends = np.add(check("t", *FINITE, t), [-dt, dt])
        check_finite("t +/- dt", ends, t=t, dt=dt)
        check_finite("the phase omega (t +/- dt)", p.omega * ends, omega=p.omega, t=t, dt=dt)
        check("dt", f"large enough that t +/- dt differs from t = {t!r}", lambda v: (t - v != t) & (t + v != t), dt)
        lo, hi = 0.5 * p.omega * (ends - t)  # omega/2 times the offsets: halved, so that u cannot overflow
        u, phi = hi - lo, hi + lo
        factor = (abs(math.sin(u) / u) if u else 1.0) * math.hypot(math.cos(phi), math.cos(p.theta) * math.sin(phi))
        try:
            result = float(adiabaticity_of(p.omega0, p.omega, p.theta, factor))
        except ValueError:  # the element overflows: named below, with dt
            result = math.inf
    lost = p.omega and p.theta and result < FLOAT_MIN  # a flipping drive's element below the normals
    check_finite("the matrix element", math.nan if lost else result, omega0=p.omega0, omega=p.omega, dt=dt)
    return result
