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
from functools import cached_property

import numpy as np


def omega_bar_of(omega0, omega, theta):
    """Effective Rabi frequency sqrt(omega0^2 + omega^2 - 2 omega0 omega cos theta), broadcast.

    Evaluated as hypot(omega0 - omega, 2 sqrt(omega0 omega) sin(theta/2)),
    which is free of cancellation, symmetric under omega0 <-> omega, and
    exactly zero iff omega0 == omega and theta == 0; below the smallest normal
    float (bits lost, or 0), sqrt(omega0 omega) is taken as sqrt(omega0) sqrt(omega).
    """
    product = np.multiply(omega0, omega)
    root = np.where(product < sys.float_info.min, np.sqrt(omega0) * np.sqrt(omega), np.sqrt(product))
    return np.hypot(omega0 - omega, 2.0 * root * np.sin(0.5 * theta))


# The drive domain: (rule, test) per input; nan and inf fail every test.
DOMAIN = {
    "omega0": ("finite and > 0", lambda v: (v > 0.0) & (v < math.inf)),
    "omega": ("finite and >= 0", lambda v: (v >= 0.0) & (v < math.inf)),
    "theta": ("in [0, pi]", lambda v: (v >= 0.0) & (v <= math.pi)),
    "t": ("finite and >= 0", lambda v: (v >= 0.0) & (v < math.inf)),
    "x": ("finite and >= 0", lambda v: (v >= 0.0) & (v < math.inf)),
}


def check_domain(name, value):
    """``value`` as a float array; a ValueError names ``name``, its DOMAIN rule and its first value outside it."""
    return _require(name, *DOMAIN[name], np.asarray(value, dtype=float))


def finite_times(t):
    """``t`` as a float array; H(t) and U(t) hold at any sign of t, so only nan and inf are rejected."""
    return _require("t", "finite", np.isfinite, np.asarray(t, dtype=float))


def _require(name, rule, test, v):
    if not np.all(ok := test(v)):
        raise ValueError(f"{name} must be {rule}, got {float(v[~ok][0])!r}")
    return v


def check_finite(quantity, values, **inputs):
    """Raise ValueError naming the ``inputs`` at the first point where ``quantity`` ``values`` is not finite
    (omega_bar: omega0 * omega overflows)."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        got = ", ".join(f"{name} = {float(np.broadcast_to(v, np.shape(values))[bad][0])!r}" for name, v in inputs.items())
        raise ValueError(f"{' and '.join(inputs)} must keep {quantity} finite, got {got}")


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

    @cached_property
    def omega_bar(self) -> float:
        """Effective Rabi frequency; zero only for omega0 == omega, theta == 0.

        Computed once per instance, as :func:`omega_bar_of` but by ``math`` save for ``np.hypot``
        (``math.hypot`` differs in the last bit); a raising call caches nothing.

        Raises:
            ValueError: naming omega0 and omega where omega0 * omega overflows it.
        """
        product = self.omega0 * self.omega
        root = math.sqrt(product) if product >= sys.float_info.min else math.sqrt(self.omega0) * math.sqrt(self.omega)
        wb = float(np.hypot(self.omega0 - self.omega, 2.0 * root * math.sin(0.5 * self.theta)))
        if not math.isfinite(wb):
            check_finite("omega_bar", wb, omega0=self.omega0, omega=self.omega)
        return wb

    @cached_property
    def drift(self) -> float:
        """Diagonal rate omega0 - omega cos(theta) of the amplitude equations, computed once per instance.

        Grouped as (omega0 - omega) + 2 omega sin^2(theta/2) so that the
        ratio drift/omega_bar stays accurate when both are small.
        """
        sin_half = math.sin(0.5 * self.theta)
        return (self.omega0 - self.omega) + 2.0 * self.omega * (sin_half * sin_half)

    @cached_property
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
        ValueError: if any ``t`` is not finite.
    """
    t = finite_times(t)
    diag = 0.5 * p.omega0 * math.cos(p.theta)
    off = 0.5 * p.omega0 * math.sin(p.theta) * (np.cos(p.omega * t) - 1j * np.sin(p.omega * t))
    h = np.empty(t.shape + (2, 2), dtype=complex)
    h[..., 0, 0] = diag
    h[..., 0, 1] = off
    h[..., 1, 0] = np.conj(off)
    h[..., 1, 1] = -diag
    return h


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-modulus component is real >= 0."""
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    mag = abs(pivot)
    if mag == 0.0:
        return v
    return v * (pivot.conjugate() / mag)


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
    """
    return 0.5 * p.omega * math.sin(p.theta) / p.omega0


def default_fd_step(p: DriveParams) -> float:
    """Central-difference step used by :func:`adiabaticity_matrix_element`.

    1e-6 of the shortest drive period balances truncation against round-off
    at double precision.
    """
    return 1e-6 * 2.0 * math.pi / max(p.omega, p.omega0)


def adiabaticity_matrix_element(p: DriveParams, t: float = 0.0, dt: float | None = None) -> float:
    """Evaluate |<-(t)| dH/dt |+(t)>| / (E+ - E-)^2 by central differences.

    The squared gap makes the ratio dimensionless; for this drive it is
    independent of ``t`` and converges quadratically in ``dt`` to
    ``adiabaticity_parameter(p)``.

    Args:
        p: drive parameters.
        t: evaluation time.
        dt: finite-difference step; defaults to :func:`default_fd_step`.

    Raises:
        ValueError: if ``dt`` is not a positive finite number, or if the
            squared gap or the result is not finite.
    """
    if dt is None:
        dt = default_fd_step(p)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt!r}")
    with np.errstate(all="ignore"):  # an overflow shows as the non-finite result checked below
        h_dot = (hamiltonian_at(p, t + dt) - hamiltonian_at(p, t - dt)) / (2.0 * dt)
        pair = eigensystem_at(p, t)
        element = abs(np.vdot(pair.vec_minus, h_dot @ pair.vec_plus))
        gap = pair.value_plus - pair.value_minus
        try:
            result = float(element / gap**2)
        except OverflowError:  # of gap**2: float powers raise where numpy returns inf
            result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"the squared gap or the matrix element is not finite at omega0 = {p.omega0!r}")
    return result
