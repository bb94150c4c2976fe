"""Exact solution of the rotating-drive two-level problem.

Starting fully in the weak-field-seeking state, the amplitudes in the
instantaneous eigenbasis are

    alpha(t) = cos(wbar t / 2) + i (drift / wbar) sin(wbar t / 2)
    beta(t)  = i (coupling / wbar) sin(wbar t / 2)

with drift = omega0 - omega cos(theta), coupling = omega sin(theta) and
wbar the effective Rabi frequency, so the survival probability oscillates
between 1 and drift^2 / wbar^2 with period 2 pi / wbar.  A flipped state
therefore returns completely after the resurrection time 2 pi / wbar; in
units of the drive period this is

    tau(x, theta) = 1 / sqrt(1 + x^2 - 2 x cos(theta)),   x = omega0 / omega,

which for theta <= pi/2 peaks at x = cos(theta) with value 1/sin(theta)
and for theta > pi/2 decreases monotonically from tau(0) = 1.

:func:`probabilities` broadcasts this over arrays of (omega0, omega, theta,
t); the :class:`DriveParams` functions take scalar or array t.  Squares are
x * x, correctly rounded unlike ``pow``, so every call shape gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin import DriveParams, check, check_domain, check_finite, omega_bar_of


@dataclass(frozen=True)
class SpinAmplitudes:
    """Complex amplitude pair in the instantaneous eigenbasis, unit norm."""

    alpha: complex | np.ndarray
    beta: complex | np.ndarray


@dataclass(frozen=True)
class ResurrectionPoint:
    """Resurrection time ``tau`` in drive-period units at ratio ``x`` = omega0/omega."""

    x: float
    tau: float
    theta: float


def _broadcast_terms(omega0, omega, theta, t):
    """Validated broadcast wbar t/2, drift/wbar, coupling/wbar and the zero-coupling mask;
    a zero wbar divides as 1, so there the ratios only multiply sin 0 = 0."""
    omega0, omega, theta, t = map(check_domain, ("omega0", "omega", "theta", "t"), (omega0, omega, theta, t))
    wb = omega_bar_of(omega0, omega, theta)
    with np.errstate(over="ignore"):  # an overflowing phase raises instead
        half = np.asarray(0.5 * wb * t)  # an array even for 0-d inputs: probabilities reuses its buffer
    check_finite("the phase wbar t/2", half, t=t)
    sin_half = np.sin(0.5 * theta)
    drift = 2.0 * ((omega0 - omega) * 0.5 + omega * (sin_half * sin_half))  # as DriveParams.drift
    coupling = omega * np.sin(theta)
    wb = np.where(wb == 0.0, 1.0, wb)
    return half, drift / wb, coupling / wb, coupling == 0.0


def _scalar_terms(p: DriveParams, t):
    """cos, sin of wbar t/2, drift/wbar and coupling/wbar by ``math`` for scalar ``t``; a zero wbar divides as 1."""
    t = float(t)
    if not 0.0 <= t < math.inf:
        check_domain("t", t)
    wb = p.omega_bar
    half = 0.5 * wb * t
    if not math.isfinite(half):
        check_finite("the phase wbar t/2", half, t=t)
    wb = wb or 1.0
    return math.cos(half), math.sin(half), p.drift / wb, p.coupling / wb


def probabilities(omega0, omega, theta, t, out=(None, None)):
    """Survival and transition probabilities, broadcast over all four inputs.

    cos^2(wbar t/2) + (drift/wbar)^2 sin^2(wbar t/2) and its complement
    (coupling/wbar)^2 sin^2(wbar t/2), as arrays of the broadcast shape;
    exactly 1 and 0 where the spin never flips (coupling = 0 or wbar = 0).

    ``out``: (survival, transition) float arrays of the broadcast shape to fill
    and return, with the bits of the call without them; a None is allocated.

    Raises:
        ValueError: naming the parameter, unless every value is finite with
            omega0 > 0, omega >= 0, theta in [0, pi] and t >= 0, and naming
            omega0 and omega, or t, where wbar or the phase wbar t/2 overflows.
    """
    half, drift_ratio, coupling_ratio, uncoupled = _broadcast_terms(omega0, omega, theta, t)
    survival, transition = out
    sin2 = np.sin(half)
    sin2 *= sin2
    survival = np.cos(half, out=np.empty_like(half) if survival is None else survival)
    survival *= survival  # the phase is spent: an unrequested transition takes its buffer
    transition = np.multiply(coupling_ratio * coupling_ratio, sin2, out=half if transition is None else transition)
    np.minimum(transition, 1.0, out=transition)  # exactly 0 at coupling = 0
    sin2 *= drift_ratio * drift_ratio
    survival += sin2  # sums of squares: rounding can only overshoot 1
    np.minimum(survival, 1.0, out=survival)
    np.copyto(survival, 1.0, where=uncoupled)
    return survival, transition


def amplitudes_at(p: DriveParams, t) -> SpinAmplitudes:
    """Amplitudes (alpha, beta) at time ``t`` for the alpha(0) = 1 start.

    Raises:
        ValueError: for negative or non-finite ``t``.
    """
    if isinstance(t, float) or np.ndim(t) == 0:
        c, s, drift_ratio, coupling_ratio = _scalar_terms(p, t)
        return SpinAmplitudes(alpha=c + 1j * drift_ratio * s, beta=1j * coupling_ratio * s)
    half, drift_ratio, coupling_ratio, _ = _broadcast_terms(p.omega0, p.omega, p.theta, t)
    sin_half = np.sin(half)
    return SpinAmplitudes(alpha=np.cos(half) + 1j * drift_ratio * sin_half, beta=1j * coupling_ratio * sin_half)


def survival_probability(p: DriveParams, t):
    """Probability of still being a weak-field seeker at time ``t``.

    cos^2(wbar t/2) + (drift/wbar)^2 sin^2(wbar t/2); identically 1 when the
    spin never flips (coupling = 0, i.e. theta = 0 or omega = 0, or wbar = 0).
    """
    if not isinstance(t, float) and np.ndim(t) != 0:
        return probabilities(p.omega0, p.omega, p.theta, t)[0]
    c, s, drift_ratio, _ = _scalar_terms(p, t)
    return 1.0 if p.coupling == 0.0 else min(c * c + drift_ratio * drift_ratio * (s * s), 1.0)


def transition_probability(p: DriveParams, t):
    """Probability of having flipped to the strong-field seeker at time ``t``.

    (coupling/wbar)^2 sin^2(wbar t/2); complements
    :func:`survival_probability` to one.
    """
    if not isinstance(t, float) and np.ndim(t) != 0:
        return probabilities(p.omega0, p.omega, p.theta, t)[1]
    _, s, _, coupling_ratio = _scalar_terms(p, t)
    return min(coupling_ratio * coupling_ratio * (s * s), 1.0)


def tau_of_ratio(x, theta):
    """Resurrection time in drive-period units as a function of x = omega0/omega.

    Accepts scalar or array ``x`` (and broadcastable ``theta``).  The
    denominator is evaluated as (1-x)^2 + 4 x sin^2(theta/2), which is exact
    at x = 0 (tau = 1) and never goes negative in floating point.

    Raises:
        ValueError: naming x or theta unless x is finite and >= 0, theta in [0, pi]
            and (1 - x)^2 finite (x below about 1.3e154); at x = 1, theta = 0 (no flip).
    """
    xs = check_domain("x", x)
    d, sin_half = 1.0 - xs, np.sin(0.5 * check_domain("theta", theta))
    with np.errstate(over="ignore", invalid="ignore"):  # d * d or 4 x overflowing (inf * 0 at theta = 0) raises below
        d2 = d * d + 4.0 * xs * (sin_half * sin_half)
    check_finite("(1 - x)^2", d2, x=xs)
    if np.any(d2 == 0.0):
        raise ValueError("resurrection undefined: no flip occurs (omega0 == omega, theta == 0)")
    tau = 1.0 / np.sqrt(d2)
    return tau.item() if tau.ndim == 0 else tau


def resurrection_time(p: DriveParams) -> ResurrectionPoint:
    """Resurrection time of the flipped state, in units of the drive period.

    Raises:
        ValueError: if omega = 0 (no drive period to measure against) or
            omega0 == omega at theta == 0 (no flip occurs).
    """
    if p.omega <= 0.0:
        raise ValueError("resurrection undefined: omega must be > 0")
    x = p.omega0 / p.omega
    return ResurrectionPoint(x=x, tau=float(tau_of_ratio(x, p.theta)), theta=p.theta)


def tau_extremum(theta: float) -> tuple[float, float] | None:
    """Interior maximum of tau(x) over x >= 0 at fixed ``theta``.

    For theta in (0, pi/2] the maximum 1/sin(theta) sits at x = cos(theta)
    (the boundary x = 0 when theta = pi/2); for theta in (pi/2, pi) tau
    decreases monotonically and ``None`` is returned.

    Raises:
        ValueError: for theta outside the open interval (0, pi).
    """
    check("theta", "in (0, pi)", lambda v: (v > 0.0) & (v < math.pi), theta)
    if theta > 0.5 * math.pi:
        return None
    return (math.cos(theta), 1.0 / math.sin(theta))
