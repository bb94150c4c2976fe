"""Tests for the trap field, derived scales and the confinement verdict."""

import dataclasses
import math
import re

import numpy as np
import pytest

from toptrap import geometry
from toptrap.closed_form import probabilities, survival_probability, transition_probability
from toptrap.geometry import (
    ZERO_FIELD_RTOL,
    ConfinementReport,
    FieldVector,
    TrapConfig,
    circle_of_death_radius,
    confinement_advisor,
    field_angle_at,
    field_at,
    hierarchy_check,
    larmor_at,
    oscillation_frequency,
    spring_constant,
    zero_locus,
)
from toptrap.spin import FLOAT_MAX, FLOAT_MIN, DriveParams, omega_bar_of

RNG = np.random.default_rng(5)

# rubidium-ish numbers used throughout: gradient 1 T/m, bias 1 mT
CONFIG = TrapConfig(a0=1.0, b0=1e-3, omega=2 * math.pi * 7e3, gamma=4.4e10, mu=9.274e-24, mass=1.443e-25)


class TestTrapConfig:
    @pytest.mark.parametrize("name", ["a0", "b0", "omega", "mu", "mass"])
    def test_positive_fields_required(self, name):
        kwargs = dict(a0=1.0, b0=1e-3, omega=1.0, gamma=1.0, mu=1.0, mass=1.0)
        kwargs[name] = 0.0
        with pytest.raises(ValueError):
            TrapConfig(**kwargs)

    def test_gamma_nonzero(self):
        with pytest.raises(ValueError):
            TrapConfig(a0=1.0, b0=1.0, omega=1.0, gamma=0.0, mu=1.0, mass=1.0)

    def test_negative_gamma_allowed(self):
        config = TrapConfig(a0=1.0, b0=1.0, omega=1.0, gamma=-2.0, mu=1.0, mass=1.0)
        assert larmor_at(config, 0.0, 0.0, 0.0) == pytest.approx(2.0, rel=1e-15)


class TestField:
    def test_instantaneous_zero(self):
        f = field_at(CONFIG, -CONFIG.b0 / CONFIG.a0, 0.0, 0.0, 0.0)
        assert (f.bx, f.by, f.bz) == (0.0, 0.0, 0.0)

    def test_origin_magnitude_is_bias(self):
        for t in RNG.uniform(0, 1e-3, 20):
            f = field_at(CONFIG, 0.0, 0.0, 0.0, float(t))
            assert f.magnitude() == pytest.approx(CONFIG.b0, rel=1e-15)

    def test_hand_evaluated_point(self):
        f = field_at(CONFIG, 1e-3, 2e-3, 0.5e-3, math.pi / (2 * CONFIG.omega))
        assert f.bx == pytest.approx(0.001, rel=1e-12)
        assert f.by == pytest.approx(0.003, rel=1e-12)
        assert f.bz == pytest.approx(-0.001, rel=1e-12)

    def test_divergence_free(self):
        h = 1e-6
        for _ in range(20):
            x, y, z = RNG.uniform(-5e-3, 5e-3, 3)
            t = RNG.uniform(0, 1e-3)
            div = (
                (field_at(CONFIG, x + h, y, z, t).bx - field_at(CONFIG, x - h, y, z, t).bx)
                + (field_at(CONFIG, x, y + h, z, t).by - field_at(CONFIG, x, y - h, z, t).by)
                + (field_at(CONFIG, x, y, z + h, t).bz - field_at(CONFIG, x, y, z - h, t).bz)
            ) / (2 * h)
            assert abs(div) <= 1e-9 * CONFIG.a0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            field_at(CONFIG, math.nan, 0.0, 0.0, 0.0)


class TestZeroLocus:
    def test_endpoints(self):
        r0 = circle_of_death_radius(CONFIG)
        np.testing.assert_allclose(zero_locus(CONFIG, 0.0), [-r0, 0.0, 0.0], atol=1e-18)
        np.testing.assert_allclose(
            zero_locus(CONFIG, math.pi / CONFIG.omega), [r0, 0.0, 0.0], atol=1e-12 * r0
        )

    def test_radius_constant(self):
        r0 = circle_of_death_radius(CONFIG)
        for t in RNG.uniform(0, 1e-2, 100):
            assert np.linalg.norm(zero_locus(CONFIG, float(t))) == pytest.approx(r0, rel=1e-15)

    def test_field_vanishes_on_locus(self):
        for t in RNG.uniform(0, 1e-2, 100):
            x, y, z = zero_locus(CONFIG, float(t))
            f = field_at(CONFIG, float(x), float(y), float(z), float(t))
            assert f.magnitude() <= 1e-15 * CONFIG.b0


class TestScales:
    def test_radius_examples(self):
        assert circle_of_death_radius(CONFIG) == pytest.approx(1e-3, rel=1e-15)
        wide = TrapConfig(a0=0.5, b0=2e-3, omega=1.0, gamma=1.0, mu=1.0, mass=1.0)
        assert circle_of_death_radius(wide) == pytest.approx(4e-3, rel=1e-15)

    def test_radius_linear_in_bias(self):
        doubled = TrapConfig(a0=CONFIG.a0, b0=2 * CONFIG.b0, omega=CONFIG.omega, gamma=CONFIG.gamma, mu=CONFIG.mu, mass=CONFIG.mass)
        assert circle_of_death_radius(doubled) == pytest.approx(2 * circle_of_death_radius(CONFIG), rel=1e-15)

    def test_spring_constant_and_oscillation_frequency(self):
        # hand-computed: k = 9.274e-24 / (2e-3) N/m, omega_osc = sqrt(k/m)
        assert spring_constant(CONFIG) == pytest.approx(4.637e-21, rel=1e-12)
        assert oscillation_frequency(CONFIG) == pytest.approx(179.26082152674113, rel=1e-12)
        assert oscillation_frequency(CONFIG) == pytest.approx(
            math.sqrt(9.274e-24 * 1.0**2 / (2.0 * 1e-3) / 1.443e-25), rel=1e-15
        )

    def test_oscillation_frequency_scalings(self):
        base = oscillation_frequency(CONFIG)
        gradient_up = TrapConfig(a0=3 * CONFIG.a0, b0=CONFIG.b0, omega=CONFIG.omega, gamma=CONFIG.gamma, mu=CONFIG.mu, mass=CONFIG.mass)
        assert oscillation_frequency(gradient_up) == pytest.approx(3 * base, rel=1e-12)
        bias_up = TrapConfig(a0=CONFIG.a0, b0=4 * CONFIG.b0, omega=CONFIG.omega, gamma=CONFIG.gamma, mu=CONFIG.mu, mass=CONFIG.mass)
        assert oscillation_frequency(bias_up) == pytest.approx(base / 2, rel=1e-12)
        moment_up = TrapConfig(a0=CONFIG.a0, b0=CONFIG.b0, omega=CONFIG.omega, gamma=CONFIG.gamma, mu=9 * CONFIG.mu, mass=CONFIG.mass)
        assert spring_constant(moment_up) == pytest.approx(9 * spring_constant(CONFIG), rel=1e-12)
        heavy = TrapConfig(a0=CONFIG.a0, b0=CONFIG.b0, omega=CONFIG.omega, gamma=CONFIG.gamma, mu=CONFIG.mu, mass=4 * CONFIG.mass)
        assert oscillation_frequency(heavy) == pytest.approx(base / 2, rel=1e-12)


class TestLarmorAndAngle:
    def test_origin(self):
        assert larmor_at(CONFIG, 0.0, 0.0, 0.0) == pytest.approx(abs(CONFIG.gamma) * CONFIG.b0, rel=1e-15)
        assert field_angle_at(CONFIG, 0.0, 0.0, 0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_on_locus_is_undefined(self):
        x, y, _ = zero_locus(CONFIG, 0.0)
        with pytest.raises(ValueError):
            larmor_at(CONFIG, float(x), float(y), 0.0)
        with pytest.raises(ValueError):
            field_angle_at(CONFIG, float(x), float(y), 0.0)

    def test_opposite_point_doubles_field(self):
        r0 = circle_of_death_radius(CONFIG)
        assert larmor_at(CONFIG, r0, 0.0, 0.0) == pytest.approx(2 * abs(CONFIG.gamma) * CONFIG.b0, rel=1e-12)

    def test_angle_is_right_angle_everywhere_in_plane(self):
        for _ in range(50):
            x, y = RNG.uniform(-5e-3, 5e-3, 2)
            t = RNG.uniform(0, 1e-2)
            try:
                angle = field_angle_at(CONFIG, float(x), float(y), float(t))
            except ValueError:
                continue
            assert angle == pytest.approx(math.pi / 2, abs=1e-12)

    def test_out_of_plane_angle(self):
        angle = field_angle_at(CONFIG, 0.0, 0.0, 0.0, z=CONFIG.b0 / (2 * CONFIG.a0))
        assert angle == pytest.approx(3 * math.pi / 4, rel=1e-12)

    def test_same_bits_as_the_field_vector(self):
        """larmor_at/field_angle_at skip the FieldVector but keep its magnitude formula, bit for bit."""
        r0 = circle_of_death_radius(CONFIG)
        for x, y, z, t in RNG.uniform(-2 * r0, 2 * r0, (500, 4)).tolist():
            t *= 1e-1
            f = field_at(CONFIG, x, y, z, t)
            assert larmor_at(CONFIG, x, y, t, z).hex() == (abs(CONFIG.gamma) * f.magnitude()).hex()
            assert field_angle_at(CONFIG, x, y, t, z).hex() == math.acos(f.bz / f.magnitude()).hex()

    @pytest.mark.parametrize(
        "x, y, z, t, message",
        [
            (math.nan, 0.0, 0.0, 0.0, "x must be finite, got nan"),
            (0.0, math.inf, 0.0, 0.0, "y must be finite, got inf"),
            (0.0, 0.0, -math.inf, 0.0, "z must be finite, got -inf"),
            (0.0, 0.0, 0.0, math.nan, "t must be finite, got nan"),
        ],
    )
    def test_non_finite_input_messages(self, x, y, z, t, message):
        for call in (field_at, larmor_at, field_angle_at):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(CONFIG, x, y, z, t) if call is field_at else call(CONFIG, x, y, t, z)

    def test_field_zero_messages(self):
        x, y, _ = zero_locus(CONFIG, 0.0).tolist()
        with pytest.raises(ValueError, match="^Larmor frequency undefined at field zero$"):
            larmor_at(CONFIG, x, y, 0.0)
        with pytest.raises(ValueError, match="^field angle undefined at field zero$"):
            field_angle_at(CONFIG, x, y, 0.0)

    def test_zero_field_boundary(self):
        """|B| exactly ZERO_FIELD_RTOL b0 counts as the field zero; one ulp of z further out it does not."""
        config = TestOverflow.UNIT
        assert field_at(config, -1.0, 0.0, -5e-13, 0.0).magnitude() == ZERO_FIELD_RTOL * config.b0 == 1e-12
        with pytest.raises(ValueError, match="^Larmor frequency undefined at field zero$"):
            larmor_at(config, -1.0, 0.0, 0.0, -5e-13)
        with pytest.raises(ValueError, match="^field angle undefined at field zero$"):
            field_angle_at(config, -1.0, 0.0, 0.0, -5e-13)
        z = math.nextafter(-5e-13, -1.0)
        assert larmor_at(config, -1.0, 0.0, 0.0, z) == 1.0000000000000002e-12
        assert field_angle_at(config, -1.0, 0.0, 0.0, z) == 0.0


class TestOverflow:
    """A trap or point whose field or scales overflow is a ValueError naming the inputs, not an
    OverflowError from a float square nor an infinite result."""

    UNIT = TrapConfig(a0=1.0, b0=1.0, omega=1.0, gamma=1.0, mu=1.0, mass=1.0)

    @pytest.mark.parametrize(
        "call, got",
        [
            # finite components whose |B|, about 2.1e308, no float holds
            (lambda c: FieldVector(1.5e308, 1.5e308, -0.0).magnitude(), "bx = 1.5e+308, by = 1.5e+308, bz = -0.0"),
            (lambda c: FieldVector(1.5e308, 1.5e308, 0.0).magnitude(), "bx = 1.5e+308, by = 1.5e+308, bz = 0.0"),
            # a0 above half the largest float: bz = -2 (a0 z) is -0.0 at z = 0, not (-2 a0) z = -inf * 0 = nan
            (lambda c: larmor_at(dataclasses.replace(c, a0=1e308), 10.0, 0.0, 0.0), "bx = inf, by = 0.0, bz = -0.0"),
            (
                lambda c: field_angle_at(dataclasses.replace(c, a0=1e308), 10.0, 0.0, 0.0),
                "bx = inf, by = 0.0, bz = -0.0",
            ),
            (lambda c: FieldVector(math.nan, 0.0, 0.0).magnitude(), "bx = nan, by = 0.0, bz = 0.0"),
        ],
    )
    def test_field_magnitude(self, call, got):
        with pytest.raises(ValueError, match=f"^bx and by and bz must keep \\|B\\| finite, got {re.escape(got)}$"):
            call(self.UNIT)

    @pytest.mark.parametrize(
        "call, expected",
        [
            pytest.param(lambda c: larmor_at(c, 1e200, 0.0, 0.0), 1e200, id="larmor_at-1e200"),
            pytest.param(lambda c: field_angle_at(c, 1e200, 0.0, 0.0), math.pi / 2, id="field_angle_at-1e200"),
            pytest.param(lambda c: FieldVector(1e200, 0.0, -0.0).magnitude(), 1e200, id="magnitude-1e200"),
            # sqrt(2) 1e154, correctly rounded
            pytest.param(lambda c: FieldVector(1e154, 1e154, 0.0).magnitude(), 1.414213562373095e154, id="magnitude-1e154"),
        ],
    )
    def test_field_whose_squares_overflow_answers(self, call, expected):
        """|B| is found without squaring a component: these fields were once refused as "must keep |B| finite"."""
        assert call(self.UNIT) == expected

    def test_finite_components_whose_magnitude_overflows(self):
        """|B|, about 2.1e308, is beyond the floats, but the angle is not, nor |gamma| |B| for a small gamma: these
        were refused as "must keep |B| finite".  At gamma = 1 the Larmor frequency itself overflows, and is named with
        gamma and the components, not with |B| = inf."""
        assert field_angle_at(self.UNIT, 1.5e308, 1.5e308, 0.0) == math.pi / 2
        assert larmor_at(dataclasses.replace(self.UNIT, gamma=1e-10), 1.5e308, 1.5e308, 0.0) == 2.121320343559643e298
        message = (
            "gamma and bx and by and bz must keep the Larmor frequency finite, "
            "got gamma = 1.0, bx = 1.5e+308, by = 1.5e+308, bz = -0.0"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            larmor_at(self.UNIT, 1.5e308, 1.5e308, 0.0)

    def test_gradient_beyond_half_the_largest_float_keeps_bz(self):
        """The components and |B| that larmor_at and field_angle_at read: bz = -0.0 beside bx = inf (field_at reports
        it), and |B| = inf, whose branch reports the infinite component."""
        bx, by, bz, b = geometry._field(dataclasses.replace(self.UNIT, a0=1e308), 10.0, 0.0, 0.0, 0.0)
        assert (bx, by, bz) == (math.inf, 0.0, 0.0) and math.copysign(1.0, bz) == -1.0
        assert b == math.inf

    def test_larmor_frequency(self):
        message = "gamma and |B| must keep the Larmor frequency finite, got gamma = 1e+300, |B| = 10000000001.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            larmor_at(dataclasses.replace(self.UNIT, gamma=1e300), 1e10, 0.0, 0.0)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"a0": 1e200}, "mu and a0 and b0 must keep k finite, got mu = 1.0, a0 = 1e+200, b0 = 1.0"),
            ({"b0": 1e-320}, "mu and a0 and b0 must keep k finite, got mu = 1.0, a0 = 1.0, b0 = 1e-320"),
            (
                {"mass": 1e-320},
                "mu and a0 and b0 and mass must keep omega_osc finite, got mu = 1.0, a0 = 1.0, b0 = 1.0, mass = 1e-320",
            ),
        ],
    )
    def test_trap_scales(self, changes, message):
        config = TrapConfig(**{**vars(self.UNIT), **changes})
        for call in (oscillation_frequency, hierarchy_check) + ((spring_constant,) if "mass" not in changes else ()):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(config)


class TestHierarchy:
    def test_well_separated(self):
        report = hierarchy_check(CONFIG, margin=10.0)
        # omega_osc ~ 179 rad/s << omega ~ 4.4e4 << omega0 ~ 4.4e7
        assert report.satisfied
        assert report.ratio_low == pytest.approx(CONFIG.omega / report.omega_osc, rel=1e-15)

    def test_degenerate_drive_fails(self):
        config = TrapConfig(a0=1.0, b0=1e-3, omega=4.4e10 * 1e-3, gamma=4.4e10, mu=9.274e-24, mass=1.443e-25)
        assert not hierarchy_check(config, margin=1.0 + 1e-9).satisfied

    def test_margin_sensitivity_at_ratio_fifty(self):
        k = 9.274e-24 / 2e-3
        mass = k / 4.0  # makes omega_osc exactly 2 rad/s
        config = TrapConfig(a0=1.0, b0=1e-3, omega=100.0, gamma=5e6, mu=9.274e-24, mass=mass)
        assert hierarchy_check(config, margin=10.0).satisfied
        assert not hierarchy_check(config, margin=100.0).satisfied

    def test_margin_below_one_rejected(self):
        with pytest.raises(ValueError):
            hierarchy_check(CONFIG, margin=0.5)


class TestConfinement:
    def test_no_flip_always_confined(self):
        report = confinement_advisor(DriveParams(1.0, 1.5, 0.0), escape_time=1e-9)
        assert report.confined
        assert report.resurrection_time == math.inf
        assert report.ratio == 0.0

    def test_degenerate_drive_confined(self):
        # omega_bar = 5e-324 at subnormal theta: 2 pi / omega_bar overflows, no flip in any time a float holds
        report = confinement_advisor(DriveParams(1.0, 1.0, 5e-324), escape_time=1.0)
        assert report.confined and report.resurrection_time == math.inf

    def test_slow_escape_confined(self):
        p = DriveParams(1.0, 1.5, math.pi / 2)
        t_res = 2 * math.pi / p.omega_bar
        report = confinement_advisor(p, escape_time=2 * t_res)
        assert report.confined
        assert report.ratio == pytest.approx(2.0, rel=1e-12)

    def test_fast_escape_not_confined(self):
        p = DriveParams(1.0, 1.5, math.pi / 2)
        report = confinement_advisor(p, escape_time=3.0)
        assert report.resurrection_time == pytest.approx(3.485284122811993, rel=1e-12)
        assert not report.confined

    def test_escape_time_validated(self):
        with pytest.raises(ValueError):
            confinement_advisor(DriveParams(1.0, 1.5, 1.0), escape_time=0.0)

    def test_overflowing_omega_bar_is_value_error(self):
        with pytest.raises(ValueError, match="omega0 = 1e\\+308, omega = 1e\\+308"):
            confinement_advisor(DriveParams(1e308, 1e308, math.pi), escape_time=1.0)

    def test_overflowing_ratio_is_value_error(self):
        message = (
            "escape_time and omega0 and omega and theta must keep escape_time/resurrection_time finite, "
            "got escape_time = 1e+150, omega0 = 1e+300, omega = 3.141592653589793, theta = 1e-150"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            confinement_advisor(DriveParams(1e300, math.pi, 1e-150), escape_time=1e150)

    def test_report_type(self):
        report = confinement_advisor(DriveParams(1.0, 1.5, 1.0), escape_time=10.0)
        assert isinstance(report, ConfinementReport)

    def test_report_is_the_frozen_dataclass(self):
        """The hand-written __init__ leaves the dataclass's fields, repr, ==, hash and frozenness as they were."""
        names = ["confined", "escape_time", "resurrection_time", "ratio"]
        generated = dataclasses.make_dataclass(
            "ConfinementReport", list(zip(names, (bool, float, float, float))), frozen=True
        )
        values = (False, 3.0, 3.4852841228119935, 0.8607619620920727)
        report = ConfinementReport(*values)
        assert [f.name for f in dataclasses.fields(report)] == list(vars(report)) == names
        assert repr(report) == repr(generated(*values))
        assert hash(report) == hash(generated(*values)) == hash(values)
        assert report == ConfinementReport(**dict(zip(names, values)))
        assert report != ConfinementReport(True, *values[1:])
        assert report == confinement_advisor(DriveParams(1.0, 1.5, math.pi / 2), escape_time=3.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.confined = True


class TestAtomPathBits:
    """The per-atom scalar path (larmor_at, field_angle_at, DriveParams, scalar survival and transition,
    confinement_advisor) gives the bits of the reference routes on 10^4 seeded atoms: cloud points within 0.5 r0 of
    CONFIG's axis (one in ten above the field zero, where theta is 0 or pi), and drives whose product omega0 omega
    lies below, inside, at the edges of and above the normal floats."""

    RNG_SEED = 29

    @classmethod
    def cloud(cls, n=5000):
        rng = np.random.default_rng(cls.RNG_SEED)
        r0 = CONFIG.b0 / CONFIG.a0
        radius, angle = 0.5 * r0 * np.sqrt(rng.uniform(0.0, 1.0, n)), rng.uniform(0.0, 2.0 * math.pi, n)
        x, y = radius * np.cos(angle), radius * np.sin(angle)
        z, t = rng.uniform(-2.0 * r0, 2.0 * r0, n), rng.uniform(0.0, 2.0 * math.pi / CONFIG.omega, n)
        x[::10], y[::10], t[::10] = -r0, 0.0, 0.0  # bx = by = 0: the field points along -z or +z
        return x.tolist(), y.tolist(), z.tolist(), t.tolist()

    @classmethod
    def extreme_drives(cls, n=5000):
        rng = np.random.default_rng(cls.RNG_SEED + 1)
        omega0, omega = 10.0 ** rng.uniform(-300.0, 300.0, n), 10.0 ** rng.uniform(-300.0, 300.0, n)
        low, high = slice(0, n // 4), slice(n // 4, n // 2)  # products straddling FLOAT_MIN and FLOAT_MAX
        omega[low], omega[high] = 10.0 ** rng.uniform(-8.0, 0.0, n // 4), 10.0 ** rng.uniform(0.0, 8.0, n // 4)
        omega0[low], omega0[high] = FLOAT_MIN / omega[low], FLOAT_MAX / omega[high]
        omega[: n // 2] *= rng.uniform(0.999, 1.001, n // 2)
        theta = rng.uniform(0.0, math.pi, n)
        theta[::10], theta[5::10] = 0.0, math.pi
        omega[::20] = omega0[::20]  # omega0 == omega at theta = 0: omega_bar = 0
        with np.errstate(over="ignore", under="ignore"):
            products = omega0 * omega
        assert np.sum(products < FLOAT_MIN) > 500 and np.sum(products > FLOAT_MAX) > 500
        assert np.sum((products >= FLOAT_MIN) & (products <= FLOAT_MAX)) > 2000
        return omega0.tolist(), omega.tolist(), theta.tolist()

    def test_larmor_and_angle_match_the_field(self):
        larmor, angle, larmor_ref, angle_ref = [], [], [], []
        for x, y, z, t in zip(*self.cloud()):
            field = field_at(CONFIG, x, y, z, t)
            b = field.magnitude()
            larmor.append(larmor_at(CONFIG, x, y, t, z))
            angle.append(field_angle_at(CONFIG, x, y, t, z))
            larmor_ref.append(abs(CONFIG.gamma) * b)
            angle_ref.append(math.acos(field.bz / b))
        assert [v.hex() for v in larmor] == [v.hex() for v in larmor_ref]
        assert [v.hex() for v in angle] == [v.hex() for v in angle_ref]
        assert {0.0, math.pi} <= set(angle)

    def test_drive_rates_probabilities_and_verdict_match_the_references(self):
        x, y, z, t = self.cloud()
        cloud = [(larmor_at(CONFIG, *a), CONFIG.omega, field_angle_at(CONFIG, *a)) for a in zip(x, y, t, z)]
        omega0, omega, theta = map(list, zip(*cloud))
        for values, extra in zip((omega0, omega, theta), self.extreme_drives()):
            values += extra
        rng = np.random.default_rng(self.RNG_SEED + 2)
        wb = omega_bar_of(np.array(omega0), np.array(omega), np.array(theta))
        with np.errstate(divide="ignore", over="ignore"):  # t of order 1/omega_bar, capped at 1e300
            times = np.where(wb > 0.0, np.minimum(rng.uniform(0.0, 20.0, wb.size) / wb, 1e300), rng.uniform(0.0, 1.0, wb.size))
        times[: len(cloud)] = rng.uniform(0.0, 1e-4, len(cloud))
        escapes = rng.uniform(1e-5, 1e-3, wb.size).tolist()
        survival_ref, transition_ref = probabilities(np.array(omega0), np.array(omega), np.array(theta), times)
        got, ref = [], []
        for w0, w, th, wbar, t, escape in zip(omega0, omega, theta, wb.tolist(), times.tolist(), escapes):
            p = DriveParams(w0, w, th)
            report = confinement_advisor(p, escape)
            sin_half = math.sin(0.5 * th)
            t_res = 2.0 * math.pi / wbar if w * math.sin(th) and wbar else math.inf
            got.append((p.omega_bar, p.coupling, p.drift, report.resurrection_time, report.ratio))
            ref.append((wbar, w * math.sin(th), 2.0 * ((w0 - w) * 0.5 + w * (sin_half * sin_half)), t_res, escape / t_res))
            got[-1] += (survival_probability(p, t), transition_probability(p, t))
            assert report.confined == (t_res == math.inf or escape > t_res)
        ref = [row + pair for row, pair in zip(ref, zip(survival_ref.tolist(), transition_ref.tolist()))]
        assert [[v.hex() for v in row] for row in got] == [[v.hex() for v in row] for row in ref]
        assert sum(row[3] == math.inf for row in ref) > 500  # theta in {0, pi}, omega_bar = 0, or 2 pi/omega_bar overflows
