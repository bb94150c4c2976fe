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

Eigenvectors are produced by numerical diagonalisation with a fixed gauge:
the component of largest modulus is made real and non-negative (ties go to
the first component).  All probability-level outputs are independent of
that choice.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


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
        normal = (product >= sys.float_info.min) & (product <= sys.float_info.max)
        root = np.where(normal, np.sqrt(product), np.sqrt(omega0) * np.sqrt(omega))
        wb = np.hypot(omega0 - omega, root * chord(theta))
    check_finite("omega_bar", wb, omega0=omega0, omega=omega)
    return wb


# Named (rule, test) pairs for check, then the drive domain: a rule per input; nan fails every test.
FINITE = ("finite", np.isfinite)
POSITIVE = ("finite and > 0", lambda v: (v > 0.0) & (v < math.inf))
NON_NEGATIVE = ("finite and >= 0", lambda v: (v >= 0.0) & (v < math.inf))
DOMAIN = {
    "omega0": POSITIVE,
    "omega": NON_NEGATIVE,
    "theta": ("in [0, pi]", lambda v: (v >= 0.0) & (v <= math.pi)),
    "t": NON_NEGATIVE,
    "x": NON_NEGATIVE,
}


def check(name, rule, test, value):
    """``value`` as a float array; a ValueError reads ``<name> must be <rule>, got <first bad value>``."""
    is_int = isinstance(value, int)  # tested as an int: it prints as one, and one too large for a float is still named
    v = value if is_int else np.asarray(value, dtype=float)
    if not np.all(ok := test(v)):
        raise ValueError(f"{name} must be {rule}, got {value if is_int else float(v[~ok][0])!r}")
    return np.asarray(v, dtype=float)


def check_domain(name, value):
    """``value`` as a float array; a ValueError names ``name``, its DOMAIN rule and its first value outside it."""
    return check(name, *DOMAIN[name], value)


def check_finite(quantity, values, **inputs):
    """Raise ValueError naming the ``inputs`` at the first point where ``quantity`` ``values`` is not finite
    (e.g. an omega_bar above the largest float)."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        got = ", ".join(f"{name} = {float(np.broadcast_to(v, np.shape(values))[bad][0])!r}" for name, v in inputs.items())
        raise ValueError(f"{' and '.join(inputs)} must keep {quantity} finite, got {got}")


class _cached:
    """A value computed on first read and stored in the instance ``__dict__``, where later reads find it
    before this non-data descriptor: ``functools.cached_property`` as of Python 3.12, without the lock that
    3.11's version takes on every first read.  A raising read stores nothing."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.func(obj))


@dataclass(frozen=True)
class DriveParams:
    """Reduced parameters of the rotating spin drive.

    Attributes:
        omega0: Larmor angular frequency, rad/s (> 0).
        omega: rotation angular frequency of the drive, rad/s (>= 0).
        theta: polar angle between the field and the z axis, rad, in [0, pi].
    """

    omega0: float
    omega: float
    theta: float

    def __post_init__(self):
        # DOMAIN's three rules as one chained test, the fast path; DOMAIN names a bad value.
        if not (0.0 < self.omega0 < math.inf and 0.0 <= self.omega < math.inf and 0.0 <= self.theta <= math.pi):
            for name in ("omega0", "omega", "theta"):
                check_domain(name, getattr(self, name))

    @_cached
    def omega_bar(self) -> float:
        """Effective Rabi frequency; zero only for omega0 == omega, theta == 0.

        Computed once per instance with the bits of :func:`omega_bar_of`, which takes every drive but those with a
        normal product omega0 omega: there ``math`` does the rest and ``abs(complex(a, b))`` the libm ``hypot`` that
        ``np.hypot`` calls (not ``math.hypot``, off in the last bit), which cannot overflow (2 sqrt(omega0 omega)
        <= 2.7e154).  A raising call caches nothing.

        Raises:
            ValueError: naming omega0 and omega where wbar overflows.
        """
        product = self.omega0 * self.omega
        if sys.float_info.min <= product <= sys.float_info.max:
            return abs(complex(self.omega0 - self.omega, math.sqrt(product) * chord(self.theta, math.sin)))
        return float(omega_bar_of(self.omega0, self.omega, self.theta))

    @_cached
    def drift(self) -> float:
        """Diagonal rate omega0 - omega cos(theta) of the amplitude equations, computed once per instance.

        Grouped as (omega0 - omega) + 2 omega sin^2(theta/2), so drift/omega_bar stays accurate when both are small,
        and summed at half scale, so 2 omega sin^2(theta/2) cannot overflow where drift (<= omega_bar) is finite.
        """
        sin_half = math.sin(0.5 * self.theta)
        return 2.0 * ((self.omega0 - self.omega) * 0.5 + self.omega * (sin_half * sin_half))

    @_cached
    def coupling(self) -> float:
        """Off-diagonal rate omega sin(theta), computed once per instance; zero means the spin never flips."""
        return self.omega * math.sin(self.theta)


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


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-modulus component of the unit ``eigh`` column ``v`` is real > 0."""
    pivot = v[int(np.argmax(np.abs(v)))]
    return v * (pivot.conjugate() / abs(pivot))


def eigensystem_at(p: DriveParams, t: float) -> EigenPair:
    """Diagonalise the Hamiltonian at time ``t``.

    Eigenvalues come out as -omega0/2 (weak-field seeker, ``vec_minus``) and
    +omega0/2 (strong-field seeker, ``vec_plus``); vectors are orthonormal
    and phase-fixed per the module convention, which keeps them continuous
    in ``t`` away from isolated convention-switch points.
    """
    h = hamiltonian_at(p, t)
    values, vectors = np.linalg.eigh(h)
    return EigenPair(
        value_plus=float(values[1]),
        value_minus=float(values[0]),
        vec_plus=_fix_phase(vectors[:, 1]),
        vec_minus=_fix_phase(vectors[:, 0]),
    )


def adiabaticity_parameter(p: DriveParams) -> float:
    """Dimensionless adiabaticity measure (omega / (2 omega0)) sin(theta).

    Evolution is adiabatic when this is much less than one; note that the
    angle enters on equal footing with the frequency ratio, so a slow drive
    is sufficient but not necessary.

    Raises:
        ValueError: naming omega0 and omega where the parameter overflows.
    """
    parameter = 0.5 * p.omega * math.sin(p.theta) / p.omega0
    check_finite("the adiabaticity parameter", parameter, omega0=p.omega0, omega=p.omega)
    return parameter


def default_fd_step(p: DriveParams) -> float:
    """Central-difference step used by :func:`adiabaticity_matrix_element`.

    1e-6 of the shortest drive period balances truncation against round-off
    at double precision.
    """
    return 1e-6 * 2.0 * math.pi / max(p.omega, p.omega0)


def adiabaticity_matrix_element(p: DriveParams, t: float = 0.0, dt: float | None = None) -> float:
    """Evaluate |<-(t)| dH/dt |+(t)>| / (E+ - E-)^2 by central differences.

    The squared gap makes the ratio dimensionless; for this drive it is independent of ``t`` and converges
    quadratically in ``dt`` to ``adiabaticity_parameter(p)``.  The real element of H(t + dt) - H(t - dt) is divided
    by the gap, by the spacing of the rounded ends t +/- dt (2 dt only where both round exactly, always at t = 0) and
    by the gap again, one at a time: no complex divide (by a reciprocal) and no squared gap leaves the float range.

    Args:
        p: drive parameters.
        t: evaluation time.
        dt: finite-difference step; defaults to :func:`default_fd_step`.

    Raises:
        ValueError: if ``dt`` is not a positive finite number or ``t`` not finite, naming t and dt where
            t +/- dt overflows, omega, t and dt where the phase omega (t +/- dt) does, t and dt where t +/- dt
            rounds to t (the difference would be 0), and omega0, omega, dt where the element overflows, or is below
            the smallest normal float while the coupling is not 0 (its bits are lost).
    """
    if dt is None:
        dt = default_fd_step(p)
    check("dt", *POSITIVE, dt)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value, named below
        ends = np.add(check("t", *FINITE, t), [-dt, dt])
        check_finite("t +/- dt", ends, t=t, dt=dt)
        check_finite("the phase omega (t +/- dt)", p.omega * ends, omega=p.omega, t=t, dt=dt)
        check("dt", f"large enough that t +/- dt differs from t = {t!r}", lambda v: (t - v != t) & (t + v != t), dt)
        pair = eigensystem_at(p, t)
        delta_h = hamiltonian_at(p, ends[1]) - hamiltonian_at(p, ends[0])
        gap = pair.value_plus - pair.value_minus
        result = float(abs(np.vdot(pair.vec_minus, delta_h @ pair.vec_plus)) / gap / (ends[1] - ends[0]) / gap)
    if result < sys.float_info.min and p.coupling:  # a flipping drive's element has lost its bits: refused below
        result = math.nan
    check_finite("the matrix element", result, omega0=p.omega0, omega=p.omega, dt=dt)
    return result
