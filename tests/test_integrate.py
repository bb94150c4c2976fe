"""Tests for the ODE routes and the rotating-frame propagator."""

import math
import tracemalloc

import numpy as np
import pytest

from toptrap import integrate
from toptrap.closed_form import survival_probability, transition_probability
from toptrap.integrate import (
    IntegrationError,
    IntegratorSettings,
    TimeSeries,
    _eigen_projections,
    _integrate_dp45,
    _norm_guard,
    evolve_instantaneous_basis,
    evolve_lab_frame,
    evolve_rotating_frame,
    rotating_frame_propagator,
)
from toptrap.spin import DriveParams, eigensystem_at

RNG = np.random.default_rng(11)


def reference_projections(p, ts, states):
    """Per-sample eigensystem_at + vdot: the loop the batched projection replaced."""
    ref = np.empty((2, len(ts)))
    for k, t in enumerate(ts):
        pair = eigensystem_at(p, float(t))
        ref[0, k] = abs(np.vdot(pair.vec_minus, states[k])) ** 2
        ref[1, k] = abs(np.vdot(pair.vec_plus, states[k])) ** 2
    return ref


class TestSettings:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1e-12},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorSettings(**kwargs)

    def test_abs_tol_above_rel_tol_rejected(self):
        with pytest.raises(ValueError, match=r"abs_tol.*rel_tol"):
            IntegratorSettings(rel_tol=1e-13, abs_tol=1e-12)

    def test_timeseries_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(times=np.zeros(3), survival=np.zeros(2), transition=np.zeros(3), method="x")


class TestGridValidation:
    def test_descending_grid_rejected(self):
        with pytest.raises(ValueError):
            evolve_instantaneous_basis(DriveParams(1, 1, 1), [0.0, 2.0, 1.0])

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            evolve_lab_frame(DriveParams(1, 1, 1), [-1.0, 0.0])


class TestInstantaneousBasis:
    def test_theta_zero_never_flips(self):
        p = DriveParams(1.0, 1.5, 0.0)
        series = evolve_instantaneous_basis(p, np.linspace(0, 30, 301))
        np.testing.assert_allclose(series.transition, 0.0, atol=1e-12)
        np.testing.assert_allclose(series.survival, 1.0, atol=1e-10)

    def test_matches_closed_form_over_twenty_periods(self):
        p = DriveParams(1.0, 1.5, math.pi / 2)
        ts = np.linspace(0.0, 20 * 2 * math.pi / p.omega_bar, 1501)
        series = evolve_instantaneous_basis(p, ts)
        delta = np.max(np.abs(series.survival - survival_probability(p, ts)))
        assert delta <= 1e-8

    def test_norm_drift_small_at_long_times(self):
        for _ in range(10):
            p = DriveParams(1.0, RNG.uniform(0, 5), RNG.uniform(0, math.pi))
            series = evolve_instantaneous_basis(p, [0.0, 100.0])
            assert abs(series.survival[-1] + series.transition[-1] - 1.0) <= 1e-9


class TestLabFrame:
    def test_starts_cleanly(self):
        series = evolve_lab_frame(DriveParams(1.0, 1.5, 1.0), [0.0])
        assert series.survival[0] == pytest.approx(1.0, abs=1e-13)
        assert series.transition[0] == pytest.approx(0.0, abs=1e-13)

    def test_matches_closed_form_over_ten_drive_periods(self):
        p = DriveParams(1.0, 0.5, math.pi / 3)
        ts = np.linspace(0.0, 10 * 2 * math.pi / p.omega, 1001)
        series = evolve_lab_frame(p, ts)
        delta = np.max(np.abs(series.survival - survival_probability(p, ts)))
        assert delta <= 1e-8

    def test_degenerate_point_stays_put(self):
        series = evolve_lab_frame(DriveParams(1.0, 1.0, 0.0), np.linspace(0, 20, 41))
        np.testing.assert_allclose(series.survival, 1.0, atol=1e-10)


class TestRotatingFramePropagator:
    @pytest.mark.parametrize("p", [DriveParams(1.0, 1.5, 1.0), DriveParams(1.0, 1.0, 0.0)])
    def test_array_matches_scalar_calls(self, p):
        ts = np.array([[0.0, 0.3, 3.7], [-12.0, 100.0, 1e3]])
        stack = rotating_frame_propagator(p, ts)
        assert stack.shape == (2, 3, 2, 2)
        for idx in np.ndindex(ts.shape):
            np.testing.assert_allclose(stack[idx], rotating_frame_propagator(p, float(ts[idx])), rtol=0, atol=1e-15)

    def test_nonfinite_time_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            rotating_frame_propagator(DriveParams(1.0, 1.5, 1.0), np.array([0.0, math.nan]))

    def test_identity_at_time_zero(self):
        u = rotating_frame_propagator(DriveParams(1.0, 1.5, 1.0), 0.0)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-16)

    def test_unitarity(self):
        for _ in range(50):
            p = DriveParams(RNG.uniform(0.1, 5), RNG.uniform(0, 5), RNG.uniform(0, math.pi))
            u = rotating_frame_propagator(p, RNG.uniform(-20, 20))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-13)

    def test_survival_matches_closed_form(self):
        p = DriveParams(1.0, 1.5, math.pi / 4)
        t = 3.7
        psi = rotating_frame_propagator(p, t) @ eigensystem_at(p, 0.0).vec_minus
        pair = eigensystem_at(p, t)
        survival = abs(np.vdot(pair.vec_minus, psi)) ** 2
        assert survival == pytest.approx(float(survival_probability(p, t)), abs=1e-12)

    def test_series_helper(self):
        p = DriveParams(2.0, 1.0, 2.0)
        ts = np.linspace(0, 15, 301)
        series = evolve_rotating_frame(p, ts)
        np.testing.assert_allclose(series.survival, survival_probability(p, ts), atol=1e-12)
        np.testing.assert_allclose(series.transition, transition_probability(p, ts), atol=1e-12)


class TestProjection:
    @pytest.mark.parametrize(
        "omega0, omega, theta",
        [(1.0, 1.5, 0.0), (1.0, 1.5, math.pi / 2), (1.0, 1.5, math.pi), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 0.0)],
    )
    def test_matches_per_sample_reference(self, monkeypatch, omega0, omega, theta):
        monkeypatch.setattr(integrate, "_BLOCK", 7)  # several blocks and a ragged last one
        p = DriveParams(omega0, omega, theta)
        ts = np.linspace(0.0, 12.0, 40)
        states = RNG.normal(size=(40, 2)) + 1j * RNG.normal(size=(40, 2))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        probs = _eigen_projections(p, ts, lambda block: states[block])
        np.testing.assert_allclose(probs, reference_projections(p, ts, states), rtol=0, atol=1e-14)

    def test_rotating_frame_peak_memory_stays_blocked(self):
        ts = np.linspace(0.0, 50.0, 400_000)
        tracemalloc.start()
        try:
            evolve_rotating_frame(DriveParams(1.0, 1.5, 1.0), ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("ratio", [0.5, 1.5])
    @pytest.mark.parametrize("theta", [0.4, math.pi / 2, 2.6])
    def test_all_routes_agree(self, ratio, theta):
        p = DriveParams(1.0, ratio, theta)
        ts = np.linspace(0.0, 5 * 2 * math.pi / p.omega_bar, 97)
        closed = survival_probability(p, ts)
        for series in (
            evolve_instantaneous_basis(p, ts),
            evolve_lab_frame(p, ts),
            evolve_rotating_frame(p, ts),
        ):
            assert np.max(np.abs(series.survival - closed)) <= 1e-8


class TestFailureModes:
    def test_step_underflow_reports_failing_time(self):
        def hopeless(t, a, b):
            return math.nan * a, math.nan * b

        with pytest.raises(IntegrationError) as err:
            _integrate_dp45(hopeless, np.array([0.0, 1.0]), (1.0 + 0j, 0.0j), 1e-10, 1e-12, 0.1)
        assert err.value.t == 0.0
        assert "underflow" in str(err.value)

    def test_norm_guard_trips_on_bad_series(self):
        settings = IntegratorSettings()
        bad = np.array([1.0, 0.9])
        with pytest.raises(IntegrationError, match="norm deviation"):
            _norm_guard(bad, np.zeros(2), np.array([0.0, 1.0]), settings, "test")

    def test_last_step_takes_the_whole_remainder(self):
        """Ten steps of 0.2 sum to a few ulp short of 2; the tenth must still arrive at 2."""
        calls = 0

        def rhs(t, a, b):
            nonlocal calls
            calls += 1
            return 0.5j * (0.3 * a + 0.8 * b), 0.5j * (0.8 * a - 0.3 * b)

        out = _integrate_dp45(rhs, np.array([0.0, 2.0]), (1.0 + 0.0j, 0.0j), 1.0, 1.0, 0.2)
        assert calls == 1 + 6 * 10
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("route", [evolve_instantaneous_basis, evolve_lab_frame])
    def test_step_bound_refuses_before_stepping(self, no_stepping, route):
        with pytest.raises(ValueError, match="steps"):
            route(DriveParams(1e6, 1.5e6, 1.0), [0.0, 1.0])


class TestStepperOrder:
    def test_fifth_order_error_reduction(self):
        """Unit tolerances accept every step, so h stays at the cap and the order shows."""
        p = DriveParams(1.0, 1.5, math.pi / 4)
        t_end = 4.0
        exact = float(survival_probability(p, t_end))
        drift, coupling = p.drift, p.coupling
        calls = 0

        def rhs(t, a, b):
            nonlocal calls
            calls += 1
            return 0.5j * (drift * a + coupling * b), 0.5j * (coupling * a - drift * b)

        def error(h):
            nonlocal calls
            calls = 0
            alpha = _integrate_dp45(rhs, np.array([0.0, t_end]), (1.0 + 0.0j, 0.0j), 1.0, 1.0, h)[0, -1]
            assert calls == 1 + 6 * round(t_end / h)  # FSAL: six new stages per accepted step
            return abs(abs(alpha) ** 2 - exact)

        assert error(0.2) / error(0.1) >= 16.0
