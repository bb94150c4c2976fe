"""Accuracy contract of the closed form over ``spin.DOMAIN`` and of the trap field and the adiabaticity measures over
the whole float range, against 50-digit mpmath references.

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

A ValueError passes only where the exact value, or a phase the function documents as its limit, leaves the float
range (for the field: a component or the phase omega t; |B| only for ``magnitude``, as ``larmor_at`` and
``field_angle_at`` scale the components), and where |B| is at the field zero (within rounding of ``ZERO_FIELD_RTOL``
b0).  Near-resonant, small-theta and underflow drives are pinned as examples, and so are drives whose survival dips to
about 0, where 1 - transition is accurate in absolute terms only.  So are the fields once refused: a0 = b0 = 1e-170
and 1e200 at x = 0.5, a subnormal |B|, whose bits the scaled components keep, and an |B| beyond the floats.

The adiabaticity measures, over the whole float range:

* ``adiabaticity_parameter``: within 2 ulp of omega sin(theta) / (2 omega0) wherever that is a normal float (sin,
  a product and a quotient, each rounded once, on exact mantissas), refused only where it overflows;
* ``adiabaticity_matrix_element``: against the same central difference evaluated in 50 digits on the float ends
  t -/+ dt, E = X / (2 (t+ - t-) omega0) for X = |s^2 x - c^2 conj x|, x = sin(theta) (e^{-i omega (t+ - t)} -
  e^{-i omega (t- - t)}).  The element's closed form works on the float offsets t+- - t, exact wherever t+- lies
  within a factor 2 of t (Sterbenz); no test evaluates that closed form.  The bound is that of X, over
  2 (t+ - t-) omega0: 8 eps X (the first-order count of the evaluation's roundings, 7 eps, each libm sin, cos or exp
  at one ulp), plus sin(theta) times the sum of the ulps of the two float phases omega (t+- - t) (each rounds by half
  an ulp and moves X by at most twice that), plus twice sin(theta) omega times the rounding of each offset, plus
  4 eps sin(theta) where the offsets are not opposite, for the roundings of the phase factor, which is exactly 1 where
  they are, plus 2^-1070 for the subnormal roundings of x and its products.  With a phase omega dt below about 1 and
  exact, opposite offsets this is a few eps of E at any t; where the phases are large it is their conditioning.  A
  refusal passes only where an input rule fails, the value may leave the floats, or, for a drive that flips
  (omega > 0 and theta > 0), E may lie below the smallest normal float within the bound.  The defects once found are
  pinned.
"""

import math
import sys

import hypothesis as hyp
import hypothesis.strategies as st
import mpmath
import pytest

from toptrap.closed_form import probabilities, resurrection_time, tau_of_ratio
from toptrap.geometry import ZERO_FIELD_RTOL, FieldVector, TrapConfig, field_angle_at, field_at, larmor_at
from toptrap.spin import DriveParams, adiabaticity_matrix_element, adiabaticity_parameter, omega_bar_of

mp = mpmath.mp.clone()
mp.dps = 50
EPS = sys.float_info.epsilon
BIG = mp.mpf(sys.float_info.max)
FLOAT_MIN = sys.float_info.min

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
    @hyp.example(c=TrapConfig(1.0, 1.0, 1.0, 1e-10, 1.0, 1.0), x=1.5e308, y=1.5e308, z=0.0, t=0.0)  # |B| beyond
    @hyp.example(c=TrapConfig(1.0, 1.0, 1.0, 0.5, 1.0, 1.0), x=1.7e308, y=1.7e308, z=5e307, t=0.0)  # the floats
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
            assert at_zero or beyond_floats(larmor) or larmor <= mp.mpf(5e-324) / 2 * (1 + 4 * EPS)
        else:
            assert not at_zero and ulps(omega0, larmor) <= 2.0
        try:
            theta = field_angle_at(c, x, y, t, z)
        except ValueError:
            assert at_zero
        else:
            u = exact(field.bz) / b
            bound = acos_spread(u, 2 * EPS) + mp.mpf(math.ulp(float(mp.acos(u))))
            assert abs(exact(theta) - mp.acos(u)) <= bound


class TestAdiabaticityParameter:
    @hyp.example(omega0=1e-300, omega=5e-324, theta=1.2)  # 0.5 omega rounded to 0: the parameter was 0.0
    @hyp.example(omega0=0.25, omega=1.1125369292536007e-308, theta=1.0)  # 0.5 omega subnormal: a bit lost
    @hyp.example(omega0=1.0, omega=1.0, theta=5e-324)  # sin(theta) subnormal
    @hyp.example(omega0=1e-300, omega=1e300, theta=1.0)  # overflows
    @over_drives()
    def test_within_2_ulp_where_normal(self, omega0, omega, theta):
        reference = exact(omega) * mp.sin(exact(theta)) / (2 * exact(omega0))
        try:
            parameter = adiabaticity_parameter(DriveParams(omega0, omega, theta))
        except ValueError:
            assert beyond_floats(reference)
            return
        if reference >= FLOAT_MIN:
            assert ulps(parameter, reference) <= 2.0

    def test_subnormal_omega_pinned(self):
        assert adiabaticity_parameter(DriveParams(1e-300, 5e-324, 1.2)) == 2.302442464788414e-24


def default_step(omega0, omega) -> float:
    return 1e-6 * 2.0 * math.pi / max(omega, omega0)


def element_reference(omega0, omega, theta, t, dt):
    """(exact element, its bound) for the float ends t -/+ dt that the element forms: the element
    is X / (2 (t+ - t-) omega0) for X = |s^2 x - c^2 conj x|, x = sin(theta) (e^{-i omega (t+ - t)} -
    e^{-i omega (t- - t)}), and the bound is the module docstring's."""
    low, high = t - dt, t + dt
    o0, om, th, centre = exact(omega0), exact(omega), exact(theta), exact(t)
    s, c, sin_theta = mp.sin(th / 2), mp.cos(th / 2), mp.sin(th)
    x = sin_theta * (mp.expj(-om * (exact(high) - centre)) - mp.expj(-om * (exact(low) - centre)))
    big_x = abs(s**2 * x - c**2 * mp.conj(x))
    offsets = (low - t, high - t)  # the float offsets whose turns the element forms, exact where Sterbenz holds
    bound_x = (
        8 * EPS * big_x
        + sin_theta * sum(mp.mpf(math.ulp(omega * offset)) for offset in offsets)
        + 2 * sin_theta * om * sum(abs(exact(o) - (exact(end) - centre)) for o, end in zip(offsets, (low, high)))
        + (0 if offsets[0] == -offsets[1] else 4 * EPS * sin_theta)
        + mp.mpf(2) ** -1070
    )
    scale = 2 * (exact(high) - exact(low)) * o0
    return big_x / scale, bound_x / scale


def refusal_holds(message, omega0, omega, theta, t, dt, given_dt) -> bool:
    """Whether the rule that the element's refusal ``message`` names fails: an input rule, a value beyond the floats,
    or a flipping drive whose element may lie below the smallest normal float."""
    span = abs(exact(t)) + exact(dt)
    if "the default step dt" in message:
        return given_dt is None and beyond_floats(2 * mp.pi * mp.mpf(1e-6) / max(exact(omega), exact(omega0)))
    if "t +/- dt finite" in message:
        return beyond_floats(span)
    if "the phase omega (t +/- dt)" in message:
        return beyond_floats(exact(omega) * span)
    if "differs from t" in message:
        return t - dt == t or t + dt == t
    assert "must keep the matrix element finite" in message, message
    reference, bound = element_reference(omega0, omega, theta, t, dt)
    lost = omega > 0 and theta > 0 and reference - bound < FLOAT_MIN
    return lost or beyond_floats(reference + bound)


def assert_element_accurate(omega0, omega, theta, t, dt):
    given_dt, dt = dt, default_step(omega0, omega) if dt is None else dt
    try:
        element = adiabaticity_matrix_element(DriveParams(omega0, omega, theta), t, given_dt)
    except ValueError as error:
        assert refusal_holds(str(error), omega0, omega, theta, t, dt, given_dt)
        return
    reference, bound = element_reference(omega0, omega, theta, t, dt)
    assert abs(exact(element) - reference) <= bound


# (omega0, omega, theta, t, dt): the element's pinned answers
ELEMENT_ANSWERS = [
    (1e-310, 2.2250738585072014e-308, 1e-8, 0.0, None),  # was 57% off: digits lost in H's subnormal entries
    (1e-310, 1e-312, 1.0, 0.0, None),  # was 5.8e-7 off
    (1e-300, 5e-324, math.pi / 2, 0.0, None),  # was refused as a subnormal element
    (1e-300, 5e-324, math.pi / 2, 1e300, None),  # was 3.2e5 times the element
    (393.93, 0.0072477, 2.5263, 9.19, None),  # was 1.7e-9 off: turns at t -/+ dt, not at the offsets -/+ dt
    (1e155, 1.0, 1.0, 0.0, 5e-324),  # was answered 19% off, then refused: a difference of turns kept one bit
    (1e300, 1.0, 1.0, 0.0, 5e-324),
    (1e-310, 5e-324, 1e-8, 0.0, 5e-324),  # was answered 0.0, then refused: the phases round to 0
    (1.0, 1.0, 1.0, 0.0, 5e-324),  # was refused: a difference of turns kept one bit
    (0.125, 1.5786167596167246e-307, 1.0, 0.0, 2.0**1023),  # was refused: the spacing of the ends overflowed
]
ELEMENT_EXAMPLES = ELEMENT_ANSWERS + [
    (1e-310, 1.7e308, 1e-8, 1.0, 1e-3),  # the float phases round by about 1e292 rad: within their conditioning
    (1.0, 1.5, 1.0, 1.0, 1.2e-16),  # the rounded ends are asymmetric about t
    (5e-324, 0.0, 1.0, 0.0, 1e-3),  # no flip: exactly 0
    (1.0, 1.0, math.pi, 0.0, None),  # sin(pi) = 1.2e-16: the drive flips by the rule
]


def with_element_examples(f):
    for omega0, omega, theta, t, dt in ELEMENT_EXAMPLES:
        f = hyp.example(omega0=omega0, omega=omega, theta=theta, t=t, dt=dt)(f)
    return f


class TestAdiabaticityElement:
    @pytest.mark.parametrize("omega0, omega, theta, t, dt", ELEMENT_ANSWERS)
    def test_pinned_answers_within_4_eps(self, omega0, omega, theta, t, dt):
        element = adiabaticity_matrix_element(DriveParams(omega0, omega, theta), t, dt)
        reference, _ = element_reference(omega0, omega, theta, t, default_step(omega0, omega) if dt is None else dt)
        assert abs(exact(element) - reference) <= 4 * EPS * reference

    @with_element_examples
    @hyp.given(
        omega0=positive_rates,
        omega=rates,
        theta=angles,
        t=st.one_of(st.just(0.0), finite),
        dt=st.one_of(st.none(), positive_rates),
    )
    @SETTINGS
    def test_within_the_phase_conditioning(self, omega0, omega, theta, t, dt):
        """t = 0, or anywhere in the floats; the default dt, or any positive one."""
        assert_element_accurate(omega0, omega, theta, t, dt)
