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

Since drift^2 + coupling^2 = wbar^2, the survival is also 1 - (coupling/wbar)^2 sin^2(wbar t/2), the complement
of the transition: one sine and no cosine, accurate in absolute terms but not relative to its size near 0.

:func:`probabilities` broadcasts this over arrays of (omega0, omega, theta,
t); the :class:`DriveParams` functions take scalar or array t.  Squares are
x * x, correctly rounded unlike ``pow``, so every call shape gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin import FLOAT_MAX, DriveParams, check, check_domain, check_finite, chord, omega_bar_of


@dataclass(frozen=True)
class ResurrectionPoint:
    """Resurrection time ``tau`` in drive-period units at ratio ``x`` = omega0/omega."""

    x: float
    tau: float
    theta: float


def _scalar_transition(p: DriveParams, t) -> float:
    """The transition (coupling/wbar)^2 sin^2(wbar t/2) by ``math`` for scalar ``t``, clamped to 1; a zero wbar divides
    as 1.  A bad t, or a phase that overflows, is named by :func:`probabilities`."""
    if not (0.0 <= t <= FLOAT_MAX and (half := 0.5 * p.omega_bar * float(t)) < math.inf):
        probabilities(p.omega0, p.omega, p.theta, t)  # raises
    ratio, s = p.coupling / (p.omega_bar or 1.0), math.sin(half)
    transition = ratio * ratio * (s * s)
    return transition if transition < 1.0 else 1.0


def probabilities(omega0, omega, theta, t, out=(None, None)):
    """Survival and transition probabilities, broadcast over all four inputs.

    The transition (coupling/wbar)^2 sin^2(wbar t/2), clamped to 1, and the survival 1 - transition, as arrays of the
    broadcast shape: one sine per point.  Exactly 1 and 0 where the spin never flips (coupling = 0 or wbar = 0).
    The survival is accurate in absolute terms, to 2 eps (1 + |wbar t/2|), not relative to its size near 0.

    ``out``: (survival, transition) float arrays of the broadcast shape to fill and return, with the bits of the call
    without them; a None is allocated.  The inputs are checked here and wbar computed once, for the shared body.

    Raises:
        ValueError: naming the parameter, unless every value is finite with omega0 > 0, omega >= 0, theta in [0, pi]
            and t >= 0, and naming omega0 and omega, or t, where wbar or the phase wbar t/2 overflows.
    """
    omega0, omega, theta, t = map(check_domain, ("omega0", "omega", "theta", "t"), (omega0, omega, theta, t))
    return _probabilities(omega, theta, t, omega_bar_of(omega0, omega, theta), *out)


def _probabilities(omega, theta, t, wb, survival=None, transition=None):
    """:func:`probabilities` of checked inputs and their wb = omega_bar_of(omega0, omega, theta), which ``run_sweep``
    shares: the phase wbar t/2 is built in ``transition``, or a new array, and turned in place into the transition."""
    with np.errstate(over="ignore"):  # an overflowing phase raises instead
        transition = np.asarray(np.multiply(0.5 * wb, t, out=transition))  # an array even for 0-d inputs
    check_finite("the phase wbar t/2", transition, t=t)
    coupling_ratio = omega * np.sin(theta) / np.where(wb == 0.0, 1.0, wb)  # a zero wbar only multiplies sin 0 = 0
    np.sin(transition, out=transition)
    transition *= transition
    transition *= coupling_ratio * coupling_ratio
    np.minimum(transition, 1.0, out=transition)  # exactly 0 at coupling = 0
    return np.subtract(1.0, transition, out=np.empty_like(transition) if survival is None else survival), transition


def survival_probability(p: DriveParams, t):
    """Probability of still being a weak-field seeker at time ``t``.

    1 - (coupling/wbar)^2 sin^2(wbar t/2), equal to cos^2(wbar t/2) + (drift/wbar)^2 sin^2(wbar t/2); identically 1
    when the spin never flips (coupling = 0, i.e. theta = 0 or omega = 0, or wbar = 0).  Accurate in absolute terms.
    """
    if not isinstance(t, float) and np.ndim(t) != 0:
        return probabilities(p.omega0, p.omega, p.theta, t)[0]
    return 1.0 - _scalar_transition(p, t)


def transition_probability(p: DriveParams, t):
    """Probability of having flipped to the strong-field seeker at time ``t``.

    (coupling/wbar)^2 sin^2(wbar t/2); complements
    :func:`survival_probability` to one.
    """
    if not isinstance(t, float) and np.ndim(t) != 0:
        return probabilities(p.omega0, p.omega, p.theta, t)[1]
    return _scalar_transition(p, t)


def tau_of_ratio(x, theta, one_minus_x=None):
    """Resurrection time in drive-period units as a function of x = omega0/omega.

    Accepts scalar or array ``x`` (and broadcastable ``theta``).  The denominator is evaluated as
    (1-x)^2 + x (2 sin(theta/2))^2, exact at x = 0 (tau = 1) and never negative; at x = 1, where it underflows below
    theta = 1e-154, tau is 1/(2 sin(theta/2)).  A drive passes ``one_minus_x`` = (omega - omega0)/omega, free of
    the rounding of x, which costs up to thousands of ulp near x = 1.

    Raises:
        ValueError: naming x or theta unless x is finite and >= 0, theta in [0, pi]
            and (1 - x)^2 finite (x below about 1.3e154); at x = 1, theta = 0 (no flip); naming theta where tau
            overflows (x = 1, theta below 5.6e-309).
    """
    xs, theta = check_domain("x", x), check_domain("theta", theta)
    d, c = 1.0 - xs if one_minus_x is None else one_minus_x, chord(theta)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # an overflowing d * d or 1/c raises below
        d2 = d * d + xs * (c * c)
        tau = np.where(d == 0.0, 1.0 / c, 1.0 / np.sqrt(d2))  # d = 0 only at x = 1: 1/c, the bits of 1/sqrt(c^2)
    check_finite("(1 - x)^2", d2, x=xs)
    if np.any((d == 0.0) & (c == 0.0)):
        raise ValueError("resurrection undefined: no flip occurs (omega0 == omega, theta == 0)")
    check_finite("tau", tau, theta=theta)
    return tau.item() if tau.ndim == 0 else tau


def tau_of_drive(omega0, omega, theta):
    """x = omega0/omega and its :func:`tau_of_ratio`, broadcast, with 1 - x as (omega - omega0)/omega.  A ValueError
    if any omega = 0 (no drive period to measure against), naming omega0 and omega where x overflows, or from
    :func:`tau_of_ratio` (e.g. omega0 == omega at theta == 0: no flip occurs)."""
    if not np.all(np.greater(omega, 0.0)):
        raise ValueError("resurrection undefined: omega must be > 0")
    with np.errstate(over="ignore"):  # a subnormal omega overflows x, named below
        x, one_minus_x = np.divide(omega0, omega), np.divide(omega - omega0, omega)
    check_finite("x", x, omega0=omega0, omega=omega)
    return x, tau_of_ratio(x, theta, one_minus_x)


def resurrection_time(p: DriveParams) -> ResurrectionPoint:
    """Resurrection time of the flipped state, in units of the drive period; raises as :func:`tau_of_drive`."""
    x, tau = tau_of_drive(p.omega0, p.omega, p.theta)
    return ResurrectionPoint(x=float(x), tau=float(tau), theta=p.theta)


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
