"""Accuracy contract of the closed form over ``spin.DOMAIN`` and of the trap field over the whole float range, against
50-digit mpmath references.

The references take the float inputs as exact and evaluate every formula in 50 significant digits, where nothing
cancels, overflows or underflows: wbar^2 as (omega0 - omega)^2 + 4 omega0 omega sin^2(theta/2), the drive's tau as
omega / wbar, and the transition probability as (coupling/wbar)^2 sin^2(wbar t/2).  The bounds:

* ``probabilities``: survival and transition within 2 eps (1 + |wbar t/2|), the conditioning of the phase;
* ``omega_bar_of``, ``tau_of_ratio`` and ``resurrection_time``: within 3 ulp of the exact value.

The field functions are held on the float components (bx, by, bz) that ``field_at`` returns, taken as exact, with
every component, trap scale and position drawn from the whole float range (subnormals, +-0 and the largest floats):

* ``FieldVector.magnitude``: within 1 ulp of sqrt(bx^2 + by^2 + bz^2), whose relative condition number in the
  components is at most 1, so the bound is the rounding of the one result;
* ``larmor_at``: within 2 ulp of |gamma| |B|, that 1 ulp of |B| and the rounding of the product;
* ``field_angle_at``: within the change of acos(u), u = bz/|B|, when u moves by 2 eps relative (1 ulp of |B| and the
  rounding of the quotient), plus 1 ulp of the angle for acos itself: acos's conditioning, 1/sqrt(1 - u^2), taken
  exactly, so the bound stays finite at angles 0 and pi.

A ValueError passes only where the exact value, or a phase or square the function documents as its limit, leaves
the float range (for the field: a component, the phase omega t or |B|), and where |B| is at the field zero (within
rounding of ``ZERO_FIELD_RTOL`` b0).  Near-resonant, small-theta and underflow drives are pinned as examples, and so
are drives whose survival dips to about 0, where 1 - transition is accurate in absolute terms only.  So are the fields
once refused: a0 = b0 = 1e-170 and 1e200 at x = 0.5, and a subnormal |B|, whose bits the scaled components keep.
"""

import math
import sys

import hypothesis as hyp
import hypothesis.strategies as st
import mpmath

from toptrap.closed_form import probabilities, resurrection_time, tau_of_ratio
from toptrap.geometry import ZERO_FIELD_RTOL, FieldVector, TrapConfig, field_angle_at, field_at, larmor_at
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


finite = st.floats(allow_nan=False, allow_infinity=False)  # the whole float range: subnormals, +-0, +-FLOAT_MAX
traps = st.builds(
    TrapConfig, a0=positive_rates, b0=positive_rates, omega=positive_rates, gamma=finite.filter(bool),
    mu=st.just(1.0), mass=st.just(1.0),
)


def magnitude_of(bx, by, bz) -> mpmath.mpf:
    return mp.sqrt(exact(bx) ** 2 + exact(by) ** 2 + exact(bz) ** 2)


def acos_spread(u, rel) -> mpmath.mpf:
    """The largest change of acos(u) when u moves by a relative ``rel`` (clipped to [-1, 1])."""
    theta = mp.acos(u)
    return max(abs(mp.acos(max(-1, min(1, u * (1 + sign * rel)))) - theta) for sign in (-1, 1))


class TestField:
    @hyp.given(bx=finite, by=finite, bz=finite)
    @hyp.example(bx=1e200, by=0.0, bz=-0.0)  # the squares overflow: once refused
    @hyp.example(bx=1e154, by=1e154, bz=0.0)  # each square is finite, their sum is not: once refused
    @hyp.example(bx=1.5e-170, by=0.0, bz=0.0)  # the square underflows: once 0
    @hyp.example(bx=5e-324, by=5e-324, bz=5e-324)
    @hyp.example(bx=1.5e308, by=1.5e308, bz=0.0)  # |B| itself beyond the floats
    @SETTINGS
    def test_magnitude_within_1_ulp(self, bx, by, bz):
        reference = magnitude_of(bx, by, bz)
        try:
            b = FieldVector(bx, by, bz).magnitude()
        except ValueError:
            assert beyond_floats(reference)
            return
        assert ulps(b, reference) <= 1.0

    @hyp.given(c=traps, x=finite, y=finite, z=finite, t=finite)
    @hyp.example(c=TrapConfig(1e-170, 1e-170, 1.0, 1.0, 1.0, 1.0), x=0.5, y=0.0, z=0.0, t=0.0)  # once "field zero"
    @hyp.example(c=TrapConfig(1e200, 1e200, 1.0, 1.0, 1.0, 1.0), x=0.5, y=0.0, z=0.0, t=0.0)  # once "|B| finite"
    @hyp.example(c=TrapConfig(5e-324, 5e-324, 1.0, 1e300, 1.0, 1.0), x=0.0, y=1.0, z=1.0, t=0.0)  # |B| subnormal
    @hyp.example(c=TrapConfig(1.0, 1.0, 1.0, 1.0, 1.0, 1.0), x=-1.0, y=0.0, z=1e-200, t=0.0)  # angle near 0
    @SETTINGS
    def test_larmor_and_angle_on_the_field_components(self, c, x, y, z, t):
        try:
            field = field_at(c, x, y, z, t)
        except ValueError:
            a0, b0 = exact(c.a0), exact(c.b0)
            largest = (abs(a0 * exact(x)) + b0, abs(a0 * exact(y)) + b0, 2 * abs(a0 * exact(z)))
            assert beyond_floats(exact(c.omega) * exact(t)) or any(map(beyond_floats, largest))
            return
        b = magnitude_of(field.bx, field.by, field.bz)
        at_zero = b <= exact(ZERO_FIELD_RTOL * c.b0) * (1 + 4 * EPS)
        larmor = abs(exact(c.gamma)) * b
        try:
            omega0 = larmor_at(c, x, y, t, z)
        except ValueError:
            assert at_zero or beyond_floats(b) or beyond_floats(larmor) or larmor <= mp.mpf(5e-324) / 2 * (1 + 4 * EPS)
        else:
            assert not at_zero and ulps(omega0, larmor) <= 2.0
        try:
            theta = field_angle_at(c, x, y, t, z)
        except ValueError:
            assert at_zero or beyond_floats(b)
        else:
            u = exact(field.bz) / b
            bound = acos_spread(u, 2 * EPS) + mp.mpf(math.ulp(float(mp.acos(u))))
            assert abs(exact(theta) - mp.acos(u)) <= bound
