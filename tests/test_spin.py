"""Tests for the two-level drive model: Hamiltonian, eigensystem, adiabaticity."""

import dataclasses
import math
import re
import sys

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from toptrap.spin import (
    DriveParams,
    adiabaticity_matrix_element,
    adiabaticity_parameter,
    eigensystem_at,
    hamiltonian_at,
    omega_bar_of,
)

RNG = np.random.default_rng(42)

finite_omega0 = st.floats(1e-3, 1e3, allow_nan=False)
finite_omega = st.floats(0.0, 1e3, allow_nan=False)
finite_theta = st.floats(0.0, math.pi, allow_nan=False)
log_uniform_rates = st.floats(-300.0, 308.0).map(lambda exponent: 10.0**exponent)  # 1e-300 to 1e308


class TestDriveParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega0": 0.0, "omega": 1.0, "theta": 1.0},
            {"omega0": -1.0, "omega": 1.0, "theta": 1.0},
            {"omega0": 1.0, "omega": -0.5, "theta": 1.0},
            {"omega0": 1.0, "omega": 1.0, "theta": -0.1},
            {"omega0": 1.0, "omega": 1.0, "theta": 3.2},
            {"omega0": math.nan, "omega": 1.0, "theta": 1.0},
            {"omega0": 1.0, "omega": math.inf, "theta": 1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DriveParams(**kwargs)

    def test_omega_bar_zero_only_at_degeneracy(self):
        assert DriveParams(1.0, 1.0, 0.0).omega_bar == 0.0
        assert DriveParams(1.0, 1.0, 1e-9).omega_bar > 0.0
        assert DriveParams(1.0, 1.0 + 1e-12, 0.0).omega_bar > 0.0

    def test_omega_bar_value(self):
        p = DriveParams(1.0, 1.5, math.pi / 2)
        assert p.omega_bar == pytest.approx(math.sqrt(3.25), rel=1e-15)

    @hyp.given(omega0=finite_omega0, omega=st.floats(1e-3, 1e3), theta=finite_theta)
    @hyp.settings(max_examples=200, deadline=None)
    def test_omega_bar_swap_symmetry(self, omega0, omega, theta):
        forward = omega_bar_of(omega0, omega, theta)
        backward = omega_bar_of(omega, omega0, theta)
        assert forward == pytest.approx(backward, rel=1e-14, abs=1e-300)

    def test_drift_and_coupling_match_direct_formulas(self):
        for _ in range(100):
            p = DriveParams(RNG.uniform(0.1, 10), RNG.uniform(0, 10), RNG.uniform(0, math.pi))
            assert p.drift == pytest.approx(p.omega0 - p.omega * math.cos(p.theta), rel=1e-12, abs=1e-12)
            assert p.coupling == pytest.approx(p.omega * math.sin(p.theta), rel=1e-12, abs=1e-12)
            assert math.hypot(p.drift, p.coupling) == pytest.approx(p.omega_bar, rel=1e-12, abs=1e-12)

    @hyp.given(omega0=st.floats(1e-3, 1e3), omega=finite_omega, theta=finite_theta)
    @hyp.example(omega0=1.0, omega=1.0, theta=0.0)
    @hyp.example(omega0=1.3, omega=0.0, theta=1.0)
    @hyp.example(omega0=1.3, omega=0.7, theta=math.pi)
    @hyp.example(omega0=1e-3, omega=1e3, theta=math.pi / 2)
    @hyp.settings(max_examples=500, deadline=None)
    def test_scalar_omega_bar_is_the_array_formula_bit_for_bit(self, omega0, omega, theta):
        """The scalar omega_bar uses math for sqrt and sin; it must not move a bit off omega_bar_of."""
        expected = float(omega_bar_of(np.full(1, omega0), np.full(1, omega), np.full(1, theta))[0])
        assert DriveParams(omega0, omega, theta).omega_bar.hex() == expected.hex()

    def test_scalar_omega_bar_bit_for_bit_on_many_drives(self):
        """math.hypot in place of np.hypot would move 70 of these 20000 by an ulp."""
        rng = np.random.default_rng(11)
        n = 20000
        omega0, omega = rng.uniform(0.0, 5.0, (2, n)) * 10.0 ** rng.integers(-3, 4, (2, n)) + 1e-3
        theta = rng.uniform(0.0, math.pi, n)
        expected = omega_bar_of(omega0, omega, theta).tolist()
        scalar = [DriveParams(*args).omega_bar for args in zip(omega0.tolist(), omega.tolist(), theta.tolist())]
        assert [v.hex() for v in scalar] == [v.hex() for v in expected]

    def test_scalar_omega_bar_bit_for_bit_over_the_whole_range(self):
        """Rates over 1e+-300, and products omega0 omega at both ends of the normals: the scalar path's
        abs(complex(a, b)) gives omega_bar_of's np.hypot bits there too."""
        rng = np.random.default_rng(5)
        n = 20000
        omega = 10.0 ** rng.uniform(-300.0, 300.0, n)
        edge = np.where(rng.random(n) < 0.5, sys.float_info.min * rng.uniform(1.0, 1.001, n), sys.float_info.max * rng.uniform(0.999, 1.0, n))
        with np.errstate(over="ignore"):
            omega0 = np.where(np.arange(n) % 2 == 0, 10.0 ** rng.uniform(-300.0, 300.0, n), edge / omega)
            omega0 = np.where(np.isfinite(omega0) & (omega0 > 0.0), omega0, 1.0)
            products = omega0 * omega
        theta = rng.uniform(0.0, math.pi, n)
        assert np.sum((products >= sys.float_info.min) & (products < 1.001 * sys.float_info.min)) > 1000
        assert np.sum(products > 0.999 * sys.float_info.max) > 1000
        expected = omega_bar_of(omega0, omega, theta).tolist()
        scalar = [DriveParams(*args).omega_bar for args in zip(omega0.tolist(), omega.tolist(), theta.tolist())]
        assert [v.hex() for v in scalar] == [v.hex() for v in expected]

    def test_derived_rates_cached_without_changing_the_dataclass(self):
        p = DriveParams(1.0, 1.5, 1.0)
        before = (repr(p), hash(p))
        rates = (p.omega_bar, p.drift, p.coupling)
        assert (vars(p)["omega_bar"], vars(p)["drift"], vars(p)["coupling"]) == rates
        assert (p.omega_bar, p.drift, p.coupling) == rates
        assert (repr(p), hash(p)) == before
        assert p == DriveParams(1.0, 1.5, 1.0)
        assert [f.name for f in dataclasses.fields(p)] == ["omega0", "omega", "theta"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.omega0 = 2.0

    @pytest.mark.parametrize(
        "omega0, omega, theta",
        [
            (1e300, 1e300, 1.0),
            (1e300, 3e299, 3.0),
            (1e-300, 1e-300, 1.0),
            (1e300, 1e-300, 2.0),
            (sys.float_info.max, 1.0, 1e-3),  # the largest finite product
            (sys.float_info.max, math.nextafter(1.0, 2.0), 1e-3),  # the smallest overflowing one
            (math.sqrt(sys.float_info.max), math.sqrt(sys.float_info.max), 1.0),
        ],
    )
    def test_omega_bar_beyond_the_normal_products(self, omega0, omega, theta):
        """At and beyond both ends of the normal products omega0 * omega, wbar is finite, the same bits on both
        paths, and within an ulp of the rotating-frame propagator's hypot(omega0 sin(theta), omega0 cos(theta) - omega)."""
        with np.errstate(over="ignore"):
            expected = float(omega_bar_of(np.full(1, omega0), np.full(1, omega), np.full(1, theta))[0])
        wb = DriveParams(omega0, omega, theta).omega_bar
        assert wb.hex() == expected.hex()
        route = math.hypot(omega0 * math.sin(theta), omega0 * math.cos(theta) - omega)
        assert abs(wb - route) <= math.ulp(wb)

    def test_overflowing_omega_bar_caches_nothing(self):
        p = DriveParams(1e308, 1e308, math.pi)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^omega0 and omega must keep omega_bar finite"):
                p.omega_bar
        assert "omega_bar" not in vars(p)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call",
        [lambda: DriveParams(1.7e308, 3e307, math.pi).omega_bar, lambda: omega_bar_of(1.7e308, 3e307, math.pi)],
        ids=["DriveParams", "omega_bar_of"],
    )
    def test_overflowing_hypot_reported_without_a_warning(self, call):
        """The split root 7.1e307 is finite and np.hypot overflows: outside np.errstate its RuntimeWarning came first."""
        message = "omega0 and omega must keep omega_bar finite, got omega0 = 1.7e+308, omega = 3e+307"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize(
        "args, message",
        [
            ((math.nan, 1.0, 1.0), "omega0 must be finite and > 0, got nan"),
            ((1.0, math.inf, 1.0), "omega must be finite and >= 0, got inf"),
            ((1.0, 1.0, -math.inf), "theta must be in [0, pi], got -inf"),
            ((math.inf, -math.inf, 1.0), "omega0 must be finite and > 0, got inf"),
        ],
    )
    def test_non_finite_parameter_named(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DriveParams(*args)

    def test_finite_parameters_whose_sum_overflows_accepted(self):
        p = DriveParams(1.7e308, 1.7e308, 1.0)
        assert p.coupling == 1.7e308 * math.sin(1.0)


class TestHamiltonian:
    def test_theta_zero_is_diagonal(self):
        p = DriveParams(1.0, 0.7, 0.0)
        h = hamiltonian_at(p, 12.3)
        np.testing.assert_allclose(h, 0.5 * np.diag([1.0, -1.0]), atol=1e-16)

    def test_equator_at_time_zero(self):
        h = hamiltonian_at(DriveParams(1.0, 2.0, math.pi / 2), 0.0)
        np.testing.assert_allclose(h, 0.5 * np.array([[0, 1], [1, 0]]), atol=1e-16)

    def test_off_diagonal_magnitude_and_phase(self):
        h = hamiltonian_at(DriveParams(1.0, 1.5, math.pi / 4), 1.0)
        assert abs(h[0, 1]) == pytest.approx(math.sin(math.pi / 4) / 2, rel=1e-15)
        assert np.angle(h[0, 1]) == pytest.approx(-1.5, rel=1e-12)
        assert np.angle(h[1, 0]) == pytest.approx(1.5, rel=1e-12)

    def test_hermitian_traceless_det(self):
        for _ in range(50):
            p = DriveParams(RNG.uniform(0.1, 5), RNG.uniform(0, 5), RNG.uniform(0, math.pi))
            h = hamiltonian_at(p, RNG.uniform(-10, 10))
            np.testing.assert_allclose(h, h.conj().T, rtol=1e-14, atol=1e-18)
            assert abs(np.trace(h)) <= 1e-16 * p.omega0
            assert np.linalg.det(h).real == pytest.approx(-p.omega0**2 / 4, rel=1e-13)

    def test_periodic_in_drive_period(self):
        p = DriveParams(1.3, 2.7, 1.1)
        for t in (0.0, 0.4, 3.9):
            a = hamiltonian_at(p, t)
            b = hamiltonian_at(p, t + 2 * math.pi / p.omega)
            np.testing.assert_allclose(a, b, atol=1e-13)

    def test_nonfinite_time_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian_at(DriveParams(1.0, 1.0, 1.0), math.inf)
        with pytest.raises(ValueError, match="nan"):
            hamiltonian_at(DriveParams(1.0, 1.0, 1.0), np.array([0.0, math.nan]))

    def test_array_time_gives_stack(self):
        p = DriveParams(1.3, 2.7, 1.1)
        ts = np.array([[0.0, 0.4, 3.9], [-7.2, 50.0, 1e3]])
        stack = hamiltonian_at(p, ts)
        assert stack.shape == (2, 3, 2, 2)
        for idx in np.ndindex(ts.shape):
            np.testing.assert_allclose(stack[idx], hamiltonian_at(p, float(ts[idx])), rtol=0, atol=1e-15)


class TestEigensystem:
    def test_theta_zero_vectors(self):
        pair = eigensystem_at(DriveParams(2.0, 1.0, 0.0), 0.5)
        assert pair.value_plus == pytest.approx(1.0, rel=1e-14)
        assert pair.value_minus == pytest.approx(-1.0, rel=1e-14)
        np.testing.assert_allclose(pair.vec_plus, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(pair.vec_minus, [0.0, 1.0], atol=1e-14)

    def test_equator_vectors_up_to_convention(self):
        pair = eigensystem_at(DriveParams(1.0, 2.0, math.pi / 2), 0.0)
        np.testing.assert_allclose(np.abs(pair.vec_plus), [1, 1] / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(np.abs(pair.vec_minus), [1, 1] / np.sqrt(2), atol=1e-12)
        # phase convention: first component real and non-negative on ties
        assert pair.vec_plus[0].real > 0 and abs(pair.vec_plus[0].imag) < 1e-14
        assert pair.vec_minus[0].real > 0 and abs(pair.vec_minus[0].imag) < 1e-14

    def test_residual_orthonormality_spectrum(self):
        for _ in range(100):
            p = DriveParams(RNG.uniform(0.1, 5), RNG.uniform(0, 5), RNG.uniform(0, math.pi))
            t = RNG.uniform(0, 20)
            h = hamiltonian_at(p, t)
            pair = eigensystem_at(p, t)
            scale = np.linalg.norm(h)
            for value, vector in ((pair.value_plus, pair.vec_plus), (pair.value_minus, pair.vec_minus)):
                assert np.linalg.norm(h @ vector - value * vector) <= 1e-12 * scale
            assert abs(np.vdot(pair.vec_plus, pair.vec_minus)) <= 1e-12
            assert np.linalg.norm(pair.vec_plus) == pytest.approx(1.0, abs=1e-12)
            assert pair.value_plus == pytest.approx(p.omega0 / 2, rel=1e-13)
            assert pair.value_minus == pytest.approx(-p.omega0 / 2, rel=1e-13)

    def test_vectors_continuous_in_time(self):
        p = DriveParams(1.0, 1.5, 1.1)
        ts = np.linspace(0.0, 4 * math.pi / p.omega, 400)
        previous = eigensystem_at(p, ts[0])
        for t in ts[1:]:
            pair = eigensystem_at(p, t)
            assert np.linalg.norm(pair.vec_minus - previous.vec_minus) < 0.1
            assert np.linalg.norm(pair.vec_plus - previous.vec_plus) < 0.1
            previous = pair


class TestAdiabaticity:
    def test_parameter_values(self):
        assert adiabaticity_parameter(DriveParams(100.0, 1.0, math.pi / 2)) == pytest.approx(0.005, rel=1e-15)
        assert adiabaticity_parameter(DriveParams(3.0, 7.0, 0.0)) == 0.0
        assert adiabaticity_parameter(DriveParams(1.0, 1.5, math.pi / 2)) == pytest.approx(0.75, rel=1e-15)

    def test_matrix_element_vanishes_at_theta_zero(self):
        assert adiabaticity_matrix_element(DriveParams(1.0, 1.5, 0.0), 0.0, 1e-5) <= 1e-12

    def test_matrix_element_matches_closed_form(self):
        value = adiabaticity_matrix_element(DriveParams(1.0, 1.5, math.pi / 2), 0.0, 1e-5)
        assert value == pytest.approx(0.75, abs=1e-8)

    def test_matrix_element_matches_parameter_for_any_omega0(self):
        # the gap-squared normalisation is what makes these agree off omega0 = 1
        for p in (DriveParams(100.0, 1.0, math.pi / 2), DriveParams(2.0, 3.0, 1.1), DriveParams(0.3, 0.2, 2.5)):
            fd = adiabaticity_matrix_element(p)
            assert fd == pytest.approx(adiabaticity_parameter(p), rel=1e-7, abs=1e-12)

    @pytest.mark.parametrize("omega0", [1e-160, 1e-162, 1e-200])
    def test_matrix_element_below_the_normal_squared_gaps(self, omega0):
        """gap^2 = omega0^2 is subnormal or 0 here: dividing by it was 1.1e-5 off at 1e-160 and refused below."""
        p = DriveParams(omega0, 1e-3, 1.0)
        assert adiabaticity_matrix_element(p) == pytest.approx(adiabaticity_parameter(p), rel=1e-9)

    @pytest.mark.parametrize("omega0", [1e155, 1e200, 1e300])
    def test_matrix_element_above_the_finite_squared_gaps(self, omega0):
        """gap^2 = omega0^2 overflows here, where the element divided by the gap twice is still a normal float."""
        p = DriveParams(omega0, 1e-3, 1.0)
        assert adiabaticity_matrix_element(p) == pytest.approx(adiabaticity_parameter(p), rel=1e-9)

    def test_quotient_divided_by_the_spacing_of_the_rounded_ends(self):
        """Both steps round t -/+ dt to 1 - 2^-53 and 1 + 2^-52, so both give one quotient: divided by 2 dt, not by
        that spacing, they gave 1.1689 and 1.0789."""
        p = DriveParams(1.0, 1.5, 1.0)
        assert adiabaticity_matrix_element(p, 1.0, 1.2e-16) == adiabaticity_matrix_element(p, 1.0, 1.3e-16)

    def test_time_independence(self):
        p = DriveParams(1.0, 1.5, 1.0)
        a = adiabaticity_matrix_element(p, 0.2, 1e-5)
        b = adiabaticity_matrix_element(p, 7.9, 1e-5)
        assert abs(a - b) <= 1e-9

    def test_quadratic_convergence(self):
        p = DriveParams(1.0, 1.5, math.pi / 2)
        exact = adiabaticity_parameter(p)
        err1 = abs(adiabaticity_matrix_element(p, 0.3, 4e-3) - exact)
        err2 = abs(adiabaticity_matrix_element(p, 0.3, 2e-3) - exact)
        order = math.log2(err1 / err2)
        assert order >= 1.9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega0, omega", [(1e-300, 1e300), (1e-150, 1e300)])
    def test_overflow_rejected_naming_omega0(self, omega0, omega):
        """The element itself overflows: about 4.2e599 and 4.2e449."""
        with pytest.raises(ValueError, match="omega0"):
            adiabaticity_matrix_element(DriveParams(omega0, omega, 1.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega0, omega", [(1e300, 1e300), (1e150, 1e300), (1e306, 1.0), (1.7e308, 1e308)])
    def test_matrix_element_where_the_complex_quotient_overflowed(self, omega0, omega):
        """The complex difference of H over the spacing overflowed here (numpy divides by the reciprocal of the
        spacing, inf below 5.6e-309), so these finite elements were refused."""
        p = DriveParams(omega0, omega, 1.0)
        assert adiabaticity_matrix_element(p) == pytest.approx(adiabaticity_parameter(p), rel=1e-9)

    @pytest.mark.filterwarnings("error")
    @hyp.settings(max_examples=300, deadline=None)
    @hyp.example(omega0=4.0266671566387116e-261, omega=1.6839658029233765e-117, theta=1.8926637372142934)
    @hyp.example(omega0=1e306, omega=1.0, theta=1.0)
    @hyp.example(omega0=1e300, omega=1e300, theta=1.0)
    @hyp.given(log_uniform_rates, log_uniform_rates, st.floats(0.01, math.pi - 0.01))
    def test_matrix_element_matches_a_normal_parameter(self, omega0, omega, theta):
        """Over the float range, the default-step element is within 1e-9 of every normal parameter.  The examples
        are the CLI drives of TestAdiabatic::test_element_matches_the_parameter: an element 0 against 2e143, then two
        refused, at 4.2e-307 and 0.42."""
        p = DriveParams(omega0, omega, theta)
        try:
            parameter = adiabaticity_parameter(p)
        except ValueError:  # the parameter overflows
            return
        if parameter >= sys.float_info.min:
            assert adiabaticity_matrix_element(p) == pytest.approx(parameter, rel=1e-9)

    def test_parameter_overflow_names_omega0_and_omega(self):
        with pytest.raises(ValueError, match="^omega0 and omega must keep the adiabaticity parameter finite, got omega0"):
            adiabaticity_parameter(DriveParams(1e-300, 1e300, 1.0))

    @pytest.mark.parametrize("t, dt", [(1e20, None), (1.0, 1e-16)])
    def test_step_lost_against_t_refused(self, t, dt):
        """Where t + dt or t - dt rounds to t (both here, then only t + dt) the element would come out wrong or 0."""
        with pytest.raises(ValueError, match=re.escape(f"dt must be large enough that t +/- dt differs from t = {t!r}")):
            adiabaticity_matrix_element(DriveParams(1.0, 1.5, 1.0), t, dt)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            adiabaticity_matrix_element(DriveParams(1.0, 1.0, 1.0), 0.0, 0.0)
        with pytest.raises(ValueError):
            adiabaticity_matrix_element(DriveParams(1.0, 1.0, 1.0), 0.0, -1e-6)
