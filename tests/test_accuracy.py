"""Accuracy contract of the closed form against 50-digit mpmath references over ``spin.DOMAIN``.

The references take the float inputs as exact and evaluate every formula in 50 significant digits, where nothing
cancels, overflows or underflows: wbar^2 as (omega0 - omega)^2 + 4 omega0 omega sin^2(theta/2), the drive's tau as
omega / wbar, and the transition probability as (coupling/wbar)^2 sin^2(wbar t/2).  The bounds:

* ``probabilities``: survival and transition within 2 eps (1 + |wbar t/2|), the conditioning of the phase;
* ``omega_bar_of``, ``tau_of_ratio`` and ``resurrection_time``: within 3 ulp of the exact value.

A ValueError passes only where the exact value, or a phase or square the function documents as its limit, leaves
the float range.  Near-resonant, small-theta and underflow drives are pinned as examples, and so are drives whose
survival dips to about 0, where 1 - transition is accurate in absolute terms only.
"""

import math
import sys

import hypothesis as hyp
import hypothesis.strategies as st
import mpmath

from toptrap.closed_form import probabilities, resurrection_time, tau_of_ratio
from toptrap.spin import DriveParams, omega_bar_of

mp = mpmath.mp.clone()
mp.dps = 50
EPS = sys.float_info.epsilon
BIG = mp.mpf(sys.float_info.max)

rates = st.floats(min_value=0.0, max_value=sys.float_info.max)
positive_rates = st.floats(min_value=5e-324, max_value=sys.float_info.max)
angles = st.floats(min_value=0.0, max_value=math.pi)
SETTINGS = hyp.settings(max_examples=300, deadline=None)

# (omega0, omega, theta): DOMAIN edges, near resonance with small theta (x = omega0/omega rounded once cost tau
# 2,494 ulp here), products omega0 omega beyond the normals, and underflow: theta so small that (2 sin(theta/2))^2
# underflows at resonance, and subnormal theta, whose half rounds (wbar was 0 for the first, 200 ulp off for the second)
DRIVES = [
    (1.0, 1.0, 0.0),
    (1.0, 1.0 + 2**-52, 1e-8),
    (1.0, 1.001, 0.01),
    (3.0, 3.0 * (1 - 2**-40), 1e-12),
    (1.0, 1.5, 1e-3),
    (1.0, 1.5, math.pi),
    (1e-200, 1e-200, 1.0),
    (1e-160, 3e-170, 2.5),
    (5e-324, 1e-300, 0.5),
    (1e300, 1e300, 1.0),
    (1e308, 1e308, 0.0),
    (1.7e308, 1e-300, math.pi / 2),
    (2.0, 2.0, 1e-200),
    (4.0, 4.0, 5e-324),
    (1e10, 1e10, 1e-310),
]


def exact(value) -> mpmath.mpf:
    return mp.mpf(float(value))


def wbar_of(omega0, omega, theta) -> mpmath.mpf:
    o0, om = exact(omega0), exact(omega)
    return mp.sqrt((o0 - om) ** 2 + 4 * o0 * om * mp.sin(exact(theta) / 2) ** 2)


def beyond_floats(value) -> bool:
    """At or above the largest float, to within the rounding of the last operation."""
    return abs(value) >= BIG * (1 - mp.mpf(2) ** -50)


def ulps(computed, reference) -> float:
    """Distance in units of the last place of the float nearest ``reference``."""
    return float(abs(exact(computed) - reference) / mp.mpf(math.ulp(float(reference))))


def over_drives(**extra):
    """Draw (omega0, omega, theta) over the DOMAIN, and each ``extra`` name from its (strategy, pinned value): every
    pinned drive runs with the pinned values."""

    def decorate(f):
        strategies = {name: strategy for name, (strategy, _) in extra.items()}
        f = hyp.given(omega0=positive_rates, omega=rates, theta=angles, **strategies)(SETTINGS(f))
        for omega0, omega, theta in DRIVES:
            f = hyp.example(omega0=omega0, omega=omega, theta=theta, **{name: v for name, (_, v) in extra.items()})(f)
        return f

    return decorate


class TestOmegaBar:
    @over_drives()
    def test_within_3_ulp(self, omega0, omega, theta):
        reference = wbar_of(omega0, omega, theta)
        try:
            wb = omega_bar_of(omega0, omega, theta)
        except ValueError:
            assert beyond_floats(reference)
            return
        assert ulps(wb, reference) <= 3.0


class TestTau:
    @hyp.given(x=st.floats(min_value=0.0, max_value=1e154), theta=angles)
    @hyp.example(x=1.0, theta=1e-8)
    @hyp.example(x=1.0, theta=1e-200)  # once refused: (2 sin(theta/2))^2 underflowed to 0, read as no flip
    @hyp.example(x=1.0, theta=1e-310)  # tau = 1e310 overflows
    @hyp.example(x=1.0 + 2**-52, theta=1e-12)
    @hyp.example(x=0.0, theta=1.0)
    @hyp.example(x=1e154, theta=math.pi)
    @hyp.example(x=math.cos(0.7), theta=0.7)
    @SETTINGS
    def test_tau_of_ratio_within_3_ulp(self, x, theta):
        xs = exact(x)
        d2 = (1 - xs) ** 2 + 4 * xs * mp.sin(exact(theta) / 2) ** 2
        try:
            tau = tau_of_ratio(x, theta)
        except ValueError:
            assert d2 == 0 or beyond_floats((1 - xs) ** 2) or beyond_floats(1 / mp.sqrt(d2))
            return
        assert ulps(tau, 1 / mp.sqrt(d2)) <= 3.0

    @over_drives()
    def test_resurrection_time_within_3_ulp(self, omega0, omega, theta):
        """The drive's own tau, omega / wbar: near resonance the rounding of x = omega0/omega alone would cost
        thousands of ulp."""
        o0, om, wb = exact(omega0), exact(omega), wbar_of(omega0, omega, theta)
        try:
            point = resurrection_time(DriveParams(omega0, omega, theta))
        except ValueError:
            assert om == 0 or wb == 0 or any(map(beyond_floats, (o0 / om, ((om - o0) / om) ** 2, om / wb)))
            return
        assert ulps(point.tau, om / wb) <= 3.0


class TestProbabilities:
    # Survival dips to about 0 at t = pi/wbar where drift = omega0 - omega cos(theta) is about 0: taken as
    # 1 - transition it is accurate in absolute terms there, not relative to its size.
    @hyp.example(omega0=0.5, omega=1.0, theta=math.pi / 3, rabi_phase=math.pi)
    @hyp.example(omega0=math.cos(math.pi / 2 - 1e-6), omega=1.0, theta=math.pi / 2 - 1e-6, rabi_phase=math.pi)
    @hyp.example(omega0=1e-12, omega=1.0, theta=math.pi / 2, rabi_phase=math.pi)
    @over_drives(rabi_phase=(st.floats(min_value=0.0, max_value=1e6), 2.5))
    def test_within_phase_conditioning(self, omega0, omega, theta, rabi_phase):
        """t in units of 1/wbar, so any phase up to 10^6 (and t = 0), as far as t stays a float."""
        wb = wbar_of(omega0, omega, theta)
        t = min(rabi_phase / float(wb), sys.float_info.max) if 0.0 < float(wb) < math.inf else rabi_phase
        half = wb * exact(t) / 2
        coupling = exact(omega) * mp.sin(exact(theta))
        transition = (coupling / wb) ** 2 * mp.sin(half) ** 2 if wb else mp.mpf(0)  # wbar = 0: no flip
        try:
            survival, q = probabilities(omega0, omega, theta, t)
        except ValueError:
            assert beyond_floats(wb) or beyond_floats(half)
            return
        bound = 2 * EPS * (1 + float(half))
        assert abs(exact(survival) - (1 - transition)) <= bound
        assert abs(exact(q) - transition) <= bound
