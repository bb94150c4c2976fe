"""Tests for the trap field, derived scales and the confinement verdict."""

import math

import numpy as np
import pytest

from toptrap.geometry import (
    ConfinementReport,
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
from toptrap.spin import DriveParams

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
        # omega_bar underflows to exactly 0 at subnormal theta
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
        with pytest.raises(ValueError, match="omega0 = 1e\\+300, omega = 1e\\+300"):
            confinement_advisor(DriveParams(1e300, 1e300, 1.0), escape_time=1.0)

    def test_report_type(self):
        report = confinement_advisor(DriveParams(1.0, 1.5, 1.0), escape_time=10.0)
        assert isinstance(report, ConfinementReport)
